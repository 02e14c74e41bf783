# Runs EXE with ARGS ('|'-separated) and fails unless it exits with exactly
# EXPECT.  A process killed by a signal (e.g. an uncaught exception's abort)
# reports a non-numeric result and fails too.
#
#   cmake -DEXE=path -DEXPECT=2 "-DARGS=--sms|abc" -P cli_exit_code.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "'${EXE} ${args}' exited with '${rc}', expected ${EXPECT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
