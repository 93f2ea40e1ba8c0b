# Runs one deterministic bench with `--json OUT` and fails unless OUT is
# byte-identical to the committed GOLDEN file. Driven by ctest:
#
#   cmake -DBENCH=<binary> -DGOLDEN=<committed json> -DOUT=<fresh json>
#         -P golden_check.cmake
execute_process(COMMAND ${BENCH} --json ${OUT}
  RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} --json ${OUT} exited with ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  execute_process(COMMAND diff -u ${GOLDEN} ${OUT})
  message(FATAL_ERROR "${OUT} differs from the committed ${GOLDEN}")
endif()
