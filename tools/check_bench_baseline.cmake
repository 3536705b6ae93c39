# Exact gate on a committed metrics baseline: runs a figure bench capped
# at 4 nodes with --metrics and byte-compares what it writes with the
# committed bench/baselines/BENCH_metrics.<app>.json. Every virtual-time
# result is deterministic, so any difference is a behavior change: run
# tools/bench_diff on the two files to see which metrics moved.
#
#   cmake -DBENCH=<bench binary> -DOUT=<metrics path>
#         -DBASELINE=<committed baseline> -P tools/check_bench_baseline.cmake
foreach(var BENCH OUT BASELINE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "usage: cmake -DBENCH=<bench> -DOUT=<metrics path> "
                        "-DBASELINE=<baseline json> -P check_bench_baseline.cmake")
  endif()
endforeach()
file(REMOVE "${OUT}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env CR_BENCH_MAX_NODES=4
          "${BENCH}" "--metrics=${OUT}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}:\n${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${OUT}" "${BASELINE}"
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "${OUT} differs from ${BASELINE}")
endif()
message(STATUS "baseline exact: ${BASELINE}")
