# Drives lopass_cli under fault injection (or with malformed input)
# and asserts on the exit code and the diagnostics on stderr.
#
# Arguments (via -D):
#   CLI          path to the lopass_cli binary
#   CLI_ARGS     semicolon-separated argument list
#   FAULT_SPEC   value for LOPASS_FAULT_INJECT ("" = no injection)
#   EXPECT_RC    required exit code
#   EXPECT_ERR   substring that must appear on stderr ("" = skip check)
#   EXPECT_NO_ERR substring that must not appear on stderr (unset = skip check)
#   EXPECT_OUT   substring that must appear on stdout (unset = skip check)
#
# The invocation is wrapped in a timeout by the caller (ctest TIMEOUT),
# so a hang also fails — "exits with a diagnostic, never crashes or
# hangs" is checked end to end, on the real binary.

if(NOT DEFINED CLI OR NOT DEFINED EXPECT_RC)
  message(FATAL_ERROR "cli_fault_check.cmake needs -DCLI=... and -DEXPECT_RC=...")
endif()

set(ENV{LOPASS_FAULT_INJECT} "${FAULT_SPEC}")
execute_process(
  COMMAND ${CLI} ${CLI_ARGS}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)

if(NOT rc STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR
    "expected exit code ${EXPECT_RC}, got '${rc}'\n"
    "spec: '${FAULT_SPEC}'  args: ${CLI_ARGS}\nstdout:\n${out}\nstderr:\n${err}")
endif()

if(EXPECT_ERR)
  string(FIND "${err}" "${EXPECT_ERR}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
      "stderr does not contain '${EXPECT_ERR}'\nstderr was:\n${err}")
  endif()
endif()

if(EXPECT_NO_ERR)
  string(FIND "${err}" "${EXPECT_NO_ERR}" found)
  if(NOT found EQUAL -1)
    message(FATAL_ERROR
      "stderr contains '${EXPECT_NO_ERR}'\nstderr was:\n${err}")
  endif()
endif()

if(EXPECT_OUT)
  string(FIND "${out}" "${EXPECT_OUT}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
      "stdout does not contain '${EXPECT_OUT}'\nstdout was:\n${out}")
  endif()
endif()
