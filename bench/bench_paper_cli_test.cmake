# bench_paper's argument handling, end to end:
#  - an unknown id, a missing id and any extra argument print usage plus
#    every valid id to stderr and exit 2;
#  - --only <id> prints that one report, banner first.
#
#   cmake -DBENCH_PAPER=<bench_paper> -DWORK=<dir> -P bench_paper_cli_test.cmake
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
set(ENV{CLOUDDNS_CACHE_DIR} ${WORK}/cache)

set(ids "table2 table3 fig1 table4 fig2 fig3 fig4 table5 table6 fig5 fig6")
string(APPEND ids " table7 fig7 fig8 fig3b")

function(expect_usage)
  execute_process(COMMAND ${BENCH_PAPER} ${ARGN}
                  RESULT_VARIABLE result OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT result EQUAL 2)
    message(FATAL_ERROR "bench_paper ${ARGN}: expected exit 2, got ${result}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "bench_paper ${ARGN}: printed to stdout:\n${out}")
  endif()
  if(NOT err STREQUAL "usage: bench_paper [--only <id>]\nids: ${ids}\n")
    message(FATAL_ERROR "bench_paper ${ARGN}: unexpected stderr:\n${err}")
  endif()
endfunction()

expect_usage(--only nope)
expect_usage(--only TABLE2)
expect_usage(--only)
expect_usage(--only table2 extra)
expect_usage(--only table2 --only table3)
expect_usage(table2)
expect_usage(--all)

# Table 2 is metadata only: it builds the scenarios without simulating
# any traffic, so it is the cheap report to run here.
execute_process(COMMAND ${BENCH_PAPER} --only table2
                RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "bench_paper --only table2: exit ${result}\n${err}")
endif()
string(REPEAT "=" 72 rule)
if(NOT out MATCHES "^\n${rule}\nTable 2 — [^\n]*\n${rule}\n")
  message(FATAL_ERROR "bench_paper --only table2: no Table 2 banner\n${out}")
endif()
if(out MATCHES "=====  *bench_paper")
  message(FATAL_ERROR "bench_paper --only table2 printed a section header")
endif()

file(REMOVE_RECURSE ${WORK})
