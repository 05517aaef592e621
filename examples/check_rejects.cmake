# Runs one example with arguments it must reject and fails unless it exits
# with status EXIT_CODE (default 1) and reports INVALID_ARGUMENT (a crash or
# a silent run fails).
#   cmake -DEXAMPLE=build/examples/quickstart "-DARGS=c_r=-1" \
#         [-DEXIT_CODE=2] -P check_rejects.cmake
if(NOT DEFINED EXIT_CODE)
  set(EXIT_CODE 1)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXAMPLE} ${args}
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc STREQUAL "${EXIT_CODE}")
  message(FATAL_ERROR
          "${EXAMPLE} ${ARGS}: exit ${rc}, expected ${EXIT_CODE}\n${out}${err}")
endif()
if(NOT err MATCHES "INVALID_ARGUMENT")
  message(FATAL_ERROR "${EXAMPLE} ${ARGS}: no INVALID_ARGUMENT on stderr\n${err}")
endif()
