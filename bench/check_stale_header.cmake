# compare_bench.py must reject a baseline whose `bench` names another binary
# even when every cell matches: BASELINE with its "bench" value replaced by
# STALE (written to OUT) is compared against BASELINE itself.
#   cmake -DBASELINE=baseline/BENCH_session.json -DSTALE=bench_fig8_closed_loop
#         -DOUT=out/stale.json -DPYTHON=python3 -DCOMPARE=compare_bench.py
#         -P check_stale_header.cmake
file(READ ${BASELINE} doc)
string(REGEX REPLACE "\"bench\": \"[^\"]*\"" "\"bench\": \"${STALE}\""
       stale "${doc}")
file(WRITE ${OUT} "${stale}")
execute_process(COMMAND ${PYTHON} ${COMPARE} ${OUT} ${BASELINE}
                        --max-regression 1
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(rc EQUAL 0 OR NOT out MATCHES "bench: baseline='${STALE}'")
  message(FATAL_ERROR
          "compare_bench.py accepted a baseline recorded by ${STALE}\n${out}")
endif()
