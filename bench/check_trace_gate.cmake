# Runs CI's trace gate: bench_grid traces the med-unif cells of the
# scaled-down Fig. 4 grid and every cell of fig7-fig9 into a fresh DIR (54
# JSONL files), then tools/trace_check replays every trace and fails unless
# all of the engine's observable invariants hold in each.
#   cmake -DBENCH_GRID=bench_grid -DTRACE_CHECK=trace_check -DDIR=traces
#         -P check_trace_gate.cmake
file(REMOVE_RECURSE ${DIR})
foreach(args "figure=fig4 scale=0.05 trace_dir=${DIR} trace_cell=med-unif"
        "figure=fig7 scale=0.1 trace_dir=${DIR}/fig7"
        "figure=fig8 scale=0.1 trace_dir=${DIR}/fig8"
        "figure=fig9 scale=0.1 trace_dir=${DIR}/fig9")
  separate_arguments(argv UNIX_COMMAND "${args}")
  execute_process(COMMAND ${BENCH_GRID} ${argv} OUTPUT_QUIET
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_grid ${args} exited with ${rc}")
  endif()
endforeach()
file(GLOB traces ${DIR}/*.jsonl ${DIR}/fig*/*.jsonl)
list(LENGTH traces count)
if(NOT count EQUAL 54)
  message(FATAL_ERROR "expected 54 traces in a fresh ${DIR}, found ${count}")
endif()
execute_process(COMMAND ${TRACE_CHECK} ${traces} OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "trace_check exited with ${rc}:\n${out}")
endif()
