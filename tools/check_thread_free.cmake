# The thread-free lint. The library under src/ is single-threaded by
# design: the simulator's arenas and queue, the engine's tables and the
# metrics registry are unsynchronized, and a run is reproducible bit for
# bit because one thread drives it. Parallelism belongs to the callers,
# which run independent simulations side by side (one Runtime each).
# Fails when a file under SRC includes a threading or atomics header
# (C++: <thread>, <mutex>, <shared_mutex>, <atomic>,
# <condition_variable>, <future>, <semaphore>, <latch>, <barrier>,
# <stop_token>; C and POSIX: <pthread.h>, <threads.h>, <stdatomic.h>;
# OpenMP: <omp.h>), has a `#pragma omp`, or uses the thread_local
# keyword. Text after // on a line is a comment and is not checked.
#
#   cmake -DSRC=<repo>/src -P tools/check_thread_free.cmake
if(NOT DEFINED SRC OR NOT IS_DIRECTORY "${SRC}")
  message(FATAL_ERROR "usage: cmake -DSRC=<source dir> -P check_thread_free.cmake")
endif()
get_filename_component(SRC "${SRC}" ABSOLUTE)
file(GLOB_RECURSE files RELATIVE "${SRC}" "${SRC}/*.h" "${SRC}/*.cc")
set(headers "thread|mutex|shared_mutex|atomic|condition_variable|future")
string(APPEND headers "|semaphore|latch|barrier|stop_token")
string(APPEND headers "|pthread\\.h|threads\\.h|stdatomic\\.h|omp\\.h")
set(include_re "^[ \t]*#[ \t]*include[ \t]*<(${headers})>")
set(pragma_re "^[ \t]*#[ \t]*pragma[ \t]+omp([ \t]|$)")
set(keyword_re "(^|[^A-Za-z0-9_])thread_local([^A-Za-z0-9_]|$)")
set(violations "")
foreach(rel IN LISTS files)
  # A coarse filter first; each candidate line is then checked with its
  # // comment removed.
  file(STRINGS "${SRC}/${rel}" hits REGEX "include|pragma|thread_local")
  foreach(line IN LISTS hits)
    string(REGEX REPLACE "//.*$" "" code "${line}")
    if(code MATCHES "${include_re}" OR code MATCHES "${pragma_re}"
       OR code MATCHES "${keyword_re}")
      string(STRIP "${line}" line)
      string(APPEND violations "\n  ${rel}: ${line}")
    endif()
  endforeach()
endforeach()
list(LENGTH files count)
if(violations)
  message(FATAL_ERROR "src/ is not thread-free:${violations}")
endif()
message(STATUS "src/ thread-free ok (${count} files)")
