# Runs `${CMD} ${ARG}` and fails unless it exits 2 with a usage line on
# stderr: a removed or misspelled flag must be rejected loudly, never
# silently ignored.
#
#   cmake -DCMD=<binary> -DARG=<flag> -P expect_usage_error.cmake
execute_process(COMMAND ${CMD} ${ARG}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${CMD} ${ARG} exited with ${rc}, expected 2:\n${out}${err}")
endif()
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "${CMD} ${ARG} printed no usage line on stderr:\n${err}")
endif()
