# Runs a figure bench with --check once per placement policy in
# POLICIES (comma-separated) and fails unless each run exits 0 with a
# checker tally of 0 races.
#
#   cmake -DBENCH=<bench> -DPOLICIES=balanced,adversarial \
#         -P tools/check_policies_race_free.cmake
if(NOT DEFINED BENCH OR NOT DEFINED POLICIES)
  message(FATAL_ERROR "usage: cmake -DBENCH=<bench> -DPOLICIES=<a,b> -P check_policies_race_free.cmake")
endif()
string(REPLACE "," ";" policies "${POLICIES}")
foreach(policy IN LISTS policies)
  execute_process(COMMAND "${BENCH}" --mapper=${policy} --check
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  string(REGEX MATCH "\\[check\\][^\n]*" tally "${err}")
  message(STATUS "${policy}: ${tally}")
  if(NOT rc EQUAL 0 OR NOT tally MATCHES ", 0 races")
    message(FATAL_ERROR "--mapper=${policy} --check exited ${rc}:\n${err}")
  endif()
endforeach()
message(STATUS "race free under ${POLICIES}")
