# Runs BINARY once per malformed value of --FLAG and demands a clean
# rejection: exit status exactly 1 (a crash reports a signal instead) and
# a message naming the flag on stderr.
#
#   cmake -DBINARY=<path> -DFLAG=divisor [-DVALUES=0,abc] -P expect_bad_flag_exit.cmake
#
# VALUES is a comma-separated list; the default suits --divisor flags.
if(NOT DEFINED VALUES)
  set(VALUES "0,abc,-5,600000")
endif()
string(REPLACE "," ";" values "${VALUES}")
foreach(value IN LISTS values)
  execute_process(COMMAND ${BINARY} --${FLAG} ${value}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err
                  TIMEOUT 60)
  if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "${BINARY} --${FLAG} ${value}: expected exit 1, got '${rc}'\n${err}")
  endif()
  if(NOT err MATCHES "${FLAG}")
    message(FATAL_ERROR "${BINARY} --${FLAG} ${value}: stderr does not name the flag\n${err}")
  endif()
endforeach()
