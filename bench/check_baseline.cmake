# Runs one CI baseline gate: BENCH with ARGS writes OUT, then
# compare_bench.py holds every deterministic value in OUT to BASELINE. Its
# --max-regression 1 leaves the wall-clock half to CI (a rate never falls
# by more than 100%).
#   cmake -DBENCH=bench_grid "-DARGS=figure=fig8" -DOUT=out/BENCH_session.json
#         -DBASELINE=baseline/BENCH_session.json -DPYTHON=python3
#         -DCOMPARE=compare_bench.py -P check_baseline.cmake
get_filename_component(dir ${OUT} DIRECTORY)
file(MAKE_DIRECTORY ${dir})
separate_arguments(argv UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BENCH} ${argv} out=${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} out=${OUT} exited with ${rc}")
endif()
execute_process(COMMAND ${PYTHON} ${COMPARE} ${BASELINE} ${OUT}
                        --max-regression 1
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OUT} does not match ${BASELINE}")
endif()
