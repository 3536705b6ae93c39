# The event-core seam lint. Everything above src/sim/ wires events
# through the typed builder (Simulator::merge / merge_remote /
# trigger_when / trigger_after, Processor::spawn, Network::send);
# only src/sim/ may name the event core's internals, subscribe a
# callable or schedule one on the queue. Fails when a file under SRC
# outside SRC/sim/ names EventState or UserEvent, or calls .subscribe(
# or .schedule_at(.
#
#   cmake -DSRC=<repo>/src -P tools/check_sim_seam.cmake
if(NOT DEFINED SRC OR NOT IS_DIRECTORY "${SRC}")
  message(FATAL_ERROR "usage: cmake -DSRC=<source dir> -P check_sim_seam.cmake")
endif()
get_filename_component(SRC "${SRC}" ABSOLUTE)
file(GLOB_RECURSE files RELATIVE "${SRC}" "${SRC}/*.h" "${SRC}/*.cc")
set(violations "")
foreach(rel IN LISTS files)
  if(rel MATCHES "^sim/")
    continue()
  endif()
  file(STRINGS "${SRC}/${rel}" hits REGEX "EventState|UserEvent|\\.subscribe\\(|\\.schedule_at\\(")
  foreach(line IN LISTS hits)
    string(STRIP "${line}" line)
    string(APPEND violations "\n  ${rel}: ${line}")
  endforeach()
endforeach()
list(LENGTH files count)
if(violations)
  message(FATAL_ERROR "event-core seam violated outside sim/:${violations}")
endif()
message(STATUS "event-core seam ok (${count} files)")
