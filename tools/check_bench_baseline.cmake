# Exact gate on committed bench baselines. Every virtual-time result is
# deterministic, so any difference is a behavior change. On a mismatch the
# failure message names a `git diff --no-index --word-diff=plain` command
# that shows which keys moved, e.g. "exec.copies_issued": [-539,-]{+540,+}.
#
# Metrics mode: runs a figure bench capped at 4 nodes with --metrics and
# byte-compares what it writes with the committed
# bench/baselines/BENCH_metrics.<app>.json, and its stdout (the figure's
# throughput table, MPI references included) with the committed
# bench/baselines/table.<app>.txt. The stdout lands next to OUT, with
# .table.txt in place of .json.
#
#   cmake -DBENCH=<bench binary> -DOUT=<metrics path>
#         -DBASELINE=<committed baseline> -DTABLE=<committed table>
#         -P tools/check_bench_baseline.cmake
#
# Matrix mode: runs a bench's --mapper-matrix in WORKDIR (where it writes
# BENCH_mapper.<app>.<policy>.json) and byte-compares every committed
# BENCH_mapper.<app>.*.json under BASELINE_DIR with its counterpart.
#
#   cmake -DBENCH=<bench binary> -DAPP=<app> -DWORKDIR=<scratch dir>
#         -DBASELINE_DIR=<committed baseline dir>
#         -P tools/check_bench_baseline.cmake
if(DEFINED WORKDIR)
  set(required BENCH APP WORKDIR BASELINE_DIR)
else()
  set(required BENCH OUT BASELINE TABLE)
endif()
foreach(var ${required})
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "usage: see the header of check_bench_baseline.cmake "
                        "(missing -D${var})")
  endif()
endforeach()

if(DEFINED WORKDIR)
  file(GLOB baselines "${BASELINE_DIR}/BENCH_mapper.${APP}.*.json")
  if(NOT baselines)
    message(FATAL_ERROR "no BENCH_mapper.${APP}.*.json under ${BASELINE_DIR}")
  endif()
  file(REMOVE_RECURSE "${WORKDIR}")
  file(MAKE_DIRECTORY "${WORKDIR}")
  execute_process(
    COMMAND "${BENCH}" --mapper-matrix
    WORKING_DIRECTORY "${WORKDIR}"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  set(pairs)
  foreach(baseline ${baselines})
    get_filename_component(name "${baseline}" NAME)
    list(APPEND pairs "${WORKDIR}/${name}" "${baseline}")
  endforeach()
else()
  string(REGEX REPLACE "\\.json$" "" table_out "${OUT}")
  string(APPEND table_out ".table.txt")
  file(REMOVE "${OUT}" "${table_out}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env CR_BENCH_MAX_NODES=4
            "${BENCH}" "--metrics=${OUT}"
    RESULT_VARIABLE rc OUTPUT_FILE "${table_out}" ERROR_VARIABLE err)
  set(pairs "${OUT}" "${BASELINE}" "${table_out}" "${TABLE}")
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}:\n${err}")
endif()

# The CTests pass on the final "baseline exact" line, so it is printed
# only once every file has matched.
set(matched)
while(pairs)
  list(POP_FRONT pairs out baseline)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${out}"
                          "${baseline}"
                  RESULT_VARIABLE differs)
  if(differs)
    # Indented lines are not rewrapped, so the command stays copyable.
    message(FATAL_ERROR "bench output differs from its committed baseline\n"
                        "  ${out}\n  differs from ${baseline}\n"
                        "To see which keys moved, run:\n"
                        "  git diff --no-index --word-diff=plain "
                        "${baseline} ${out}")
  endif()
  list(APPEND matched "${baseline}")
endwhile()
list(JOIN matched " " matched)
message(STATUS "baseline exact: ${matched}")
