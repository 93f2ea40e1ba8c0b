# Runs TOOL with the space-separated ARGS and fails unless it exits 1,
# prints `error: ...` on stderr and nothing on stdout. Driven by ctest:
#
#   cmake -DTOOL=<binary> "-DARGS=<subcommand and options>"
#         -P refusal_check.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "${TOOL} ${ARGS}: expected exit 1, got ${status}\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "^error: ")
  message(FATAL_ERROR "${TOOL} ${ARGS}: expected `error: ...` on stderr, "
    "got:\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "${TOOL} ${ARGS}: expected no output, got:\n${out}")
endif()
message(STATUS "${err}")
