# Runs bench_grid at jobs=1 and jobs=4 over every figure, over fig8 with
# three replications and over fig7 tracing every cell into a fresh DIR, and
# fails unless each pair of outputs match once the wall-clock lines are
# dropped and fig7 left one trace per cell (4 variants x 4 policies) in DIR.
#   cmake -DBENCH_GRID=bench_grid -DDIR=/tmp/tr -P check_jobs_invariant.cmake
foreach(args "figure=all scale=0.05" "figure=fig8 scale=0.05 seeds=3"
        "figure=fig7 scale=0.05 trace_dir=${DIR}")
  separate_arguments(argv UNIX_COMMAND "${args}")
  foreach(jobs 1 4)
    file(REMOVE_RECURSE ${DIR})
    execute_process(COMMAND ${BENCH_GRID} ${argv} jobs=${jobs}
                    OUTPUT_VARIABLE out RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "bench_grid ${args} jobs=${jobs} exited with ${rc}")
    endif()
    string(REGEX REPLACE "grid wall-clock:[^\n]*\n" "" out_${jobs} "${out}")
  endforeach()
  if(NOT out_1 STREQUAL out_4)
    message(FATAL_ERROR "bench_grid ${args} differs between jobs=1 and "
                        "jobs=4:\n--- jobs=1\n${out_1}\n--- jobs=4\n${out_4}")
  endif()
endforeach()
file(GLOB traces ${DIR}/*.jsonl)
list(LENGTH traces count)
if(NOT count EQUAL 16)
  message(FATAL_ERROR "expected 16 traces in a fresh ${DIR}, found ${count}")
endif()
