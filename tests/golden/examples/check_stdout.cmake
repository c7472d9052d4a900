# Runs one example and compares its stdout with a golden file byte for
# byte.  Invoked by the example_* ctest entries (see CMakeLists.txt):
#
#   cmake -DEXE=<binary> -DARGS=<;-list> -DGOLDEN=<file> -DOUT=<file>
#         -P check_stdout.cmake
#
# The actual output is kept in OUT so a failure can be inspected with
# `diff GOLDEN OUT`.
execute_process(COMMAND ${EXE} ${ARGS}
                OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} ${ARGS} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "stdout of ${EXE} ${ARGS} differs from the golden:\n"
                      "  diff ${GOLDEN} ${OUT}")
endif()
