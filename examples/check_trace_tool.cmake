# Runs trace_tool's generate -> inspect -> replay round trip on a small
# two-class trace and fails unless every step exits 0 and prints what that
# step should.
#   cmake -DTOOL=build/examples/trace_tool -DTRACE=/tmp/trace.csv \
#         -P check_trace_tool.cmake
function(run_step args_string expect)
  separate_arguments(args UNIX_COMMAND "${args_string}")
  execute_process(COMMAND ${TOOL} ${args}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "trace_tool ${args_string}: exit ${rc}\n${out}${err}")
  endif()
  if(NOT out MATCHES "${expect}")
    message(FATAL_ERROR
            "trace_tool ${args_string}: no match for '${expect}'\n${out}")
  endif()
endfunction()

file(REMOVE ${TRACE})
run_step("mode=generate out=${TRACE} scale=0.01 classes=2 dist=neg"
         "wrote .*: [1-9][0-9]* queries, [0-9]+ update sources \\(med-neg\\)")
run_step("mode=inspect in=${TRACE}" "preference classes[ |]+2")
run_step("mode=replay in=${TRACE} c_r=1" "unit on med-neg: USM=[0-9]")
file(REMOVE ${TRACE})
