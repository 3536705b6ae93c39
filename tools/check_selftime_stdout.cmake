# --selftime writes host timings to its JSON artifact only: a figure
# bench's stdout must be byte-identical with and without it. Runs the
# bench capped at 2 nodes both ways and compares the two stdouts.
#
#   cmake -DBENCH=<bench binary> -DANALYSIS=<artifact path>
#         -P tools/check_selftime_stdout.cmake
foreach(var BENCH ANALYSIS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "usage: see the header of check_selftime_stdout.cmake "
                        "(missing -D${var})")
  endif()
endforeach()

file(REMOVE "${ANALYSIS}")
foreach(run plain timed)
  if(run STREQUAL "timed")
    set(flags "--selftime=${ANALYSIS}")
  else()
    set(flags)
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env CR_BENCH_MAX_NODES=2 "${BENCH}" ${flags}
    RESULT_VARIABLE rc OUTPUT_VARIABLE ${run} ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${flags} exited with ${rc}:\n${err}")
  endif()
endforeach()
if(NOT EXISTS "${ANALYSIS}")
  message(FATAL_ERROR "--selftime wrote no artifact at ${ANALYSIS}")
endif()
if(NOT plain STREQUAL timed)
  message(FATAL_ERROR "stdout differs with --selftime\n"
                      "--- without:\n${plain}\n--- with --selftime:\n${timed}")
endif()
message(STATUS "selftime stdout identical")
