# Byte-exact lint output (ctest -L lint): runs lopass_cli with CLI_ARGS
# and compares "exit <code>" plus one output stream with a fixture.
#
#   cmake -DCLI=path/to/lopass_cli -DCLI_ARGS="lint;--app;digs"
#         -DFIXTURE=tests/data/lint/golden/app_digs.txt
#         [-DSTREAM=stdout] [-DREGEN=1] -P lint_golden_check.cmake
#
# STREAM picks the compared stream (default stderr, where lint prints
# its findings). The caller runs this from the source root, so a file
# operand is a relative path and prints the same in every checkout.
# REGEN=1 rewrites the fixture instead; review the diff before
# committing it.

foreach(var CLI CLI_ARGS FIXTURE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "lint_golden_check.cmake needs -D${var}=...")
  endif()
endforeach()
if(NOT DEFINED STREAM)
  set(STREAM stderr)
endif()

execute_process(
  COMMAND ${CLI} ${CLI_ARGS}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(STREAM STREQUAL "stdout")
  set(actual "exit ${rc}\n${out}")
else()
  set(actual "exit ${rc}\n${err}")
endif()

if(REGEN)
  file(WRITE "${FIXTURE}" "${actual}")
  message(STATUS "regenerated ${FIXTURE}")
  return()
endif()

file(READ "${FIXTURE}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
          "lint output differs from ${FIXTURE}\n"
          "expected:\n${expected}\nactual:\n${actual}")
endif()
