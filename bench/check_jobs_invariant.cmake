# Runs `bench_grid figure=all scale=0.05` at jobs=1 and jobs=4 and fails
# unless the two outputs match once the wall-clock lines are dropped.
#   cmake -DBENCH_GRID=build/bench/bench_grid -P check_jobs_invariant.cmake
foreach(jobs 1 4)
  execute_process(COMMAND ${BENCH_GRID} figure=all scale=0.05 jobs=${jobs}
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_grid jobs=${jobs} exited with ${rc}")
  endif()
  string(REGEX REPLACE "grid wall-clock:[^\n]*\n" "" out_${jobs} "${out}")
endforeach()
if(NOT out_1 STREQUAL out_4)
  message(FATAL_ERROR "bench_grid output differs between jobs=1 and jobs=4:\n"
                      "--- jobs=1\n${out_1}\n--- jobs=4\n${out_4}")
endif()
