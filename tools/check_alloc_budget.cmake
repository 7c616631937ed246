# Allocation ceiling over bench_e2e output. bench_e2e prints
# `<workload> allocs_per_query <value> count`: heap allocations of one
# iteration per client query (per resolution on resolver_stack). For a
# given seed the count repeats exactly from run to run, so a committed
# ceiling holds steady and fails as soon as the per-query path starts
# allocating again (for instance, a fresh message per upstream exchange).
# The ceilings are the check_ceiling calls at the end, for runs at the
# default (golden) seed; EXPERIMENTS.md records the measured counts.
#
# Usage, over the bench job's existing runs:
#   bench_e2e --workload cold_table3 --threads 1 --seconds 1 >  e2e_1t.txt
#   bench_e2e --workload warm_suite  --threads 1 --seconds 3 >> e2e_1t.txt
#   bench_e2e --workload cold_table3 --threads 8 --seconds 1 >  e2e_8t.txt
#   bench_e2e --workload warm_suite  --threads 8 --seconds 3 >> e2e_8t.txt
#   bench_e2e --workload fault_event --seconds 1    >  e2e_other.txt
#   bench_e2e --workload resolver_stack --seconds 1 >> e2e_other.txt
#   cmake -DONE_THREAD=e2e_1t.txt -DEIGHT_THREADS=e2e_8t.txt \
#         -DOTHER=e2e_other.txt -P tools/check_alloc_budget.cmake

include("${CMAKE_CURRENT_LIST_DIR}/e2e_metrics.cmake")

foreach(var ONE_THREAD EIGHT_THREADS OTHER)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=<bench_e2e stdout file>")
  endif()
endforeach()

set(failed FALSE)

# Fails the gate when `workload`'s allocs_per_query in `file` exceeds
# `ceiling` (a whole number of allocations per query).
function(check_ceiling file workload ceiling)
  read_metric("${file}" "${workload}" allocs_per_query micro text)
  math(EXPR ceiling_micro "${ceiling} * 1000000")
  if(micro GREATER ceiling_micro)
    message(SEND_ERROR "${workload} (${file}): allocs_per_query ${text} "
                       "exceeds the ceiling of ${ceiling}")
    set(failed TRUE PARENT_SCOPE)
  else()
    message(STATUS "${workload}: allocs_per_query ${text} <= ${ceiling}")
  endif()
endfunction()

check_ceiling("${ONE_THREAD}" cold_table3 5)
check_ceiling("${EIGHT_THREADS}" cold_table3 5)
check_ceiling("${ONE_THREAD}" warm_suite 2)
check_ceiling("${EIGHT_THREADS}" warm_suite 2)
check_ceiling("${OTHER}" fault_event 4)
check_ceiling("${OTHER}" resolver_stack 2)

if(failed)
  message(FATAL_ERROR "allocation budget exceeded")
endif()
