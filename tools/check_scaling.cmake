# Thread-scaling gate over bench_e2e output. Two runs of the same
# workloads, one at --threads 1 and one at --threads 8, each print
# `<workload> <metric> <value> <unit>` lines on stdout. The gate holds three
# conditions:
#
#   - warm_suite throughput_qps at 8 threads >= at 1 thread. The sharded
#     read/scan path has no serial merge barrier, so adding workers must
#     never cost queries/second; a drop means a new serial section or
#     false sharing crept into the hot path.
#   - cold_table3 wall_s at 8 threads < at 1 thread. A cache-cleared
#     rebuild must get strictly faster with workers, or the parallel zone
#     build / signing / simulation path has stopped pulling its weight.
#   - cold_table3 setup_s at 8 threads < at 1 thread. Scenario set-up
#     builds every zone image, the .nl delegations on the whole pool, so
#     it must get strictly faster with workers too; a serial set-up path
#     would hide here behind the simulation's speed-up.
#
# Usage:
#   bench_e2e --workload cold_table3 --threads 1 --seconds 1 >  e2e_1t.txt
#   bench_e2e --workload warm_suite  --threads 1 --seconds 3 >> e2e_1t.txt
#   (the same at --threads 8 into e2e_8t.txt)
#   cmake -DONE_THREAD=e2e_1t.txt -DEIGHT_THREADS=e2e_8t.txt \
#         -P tools/check_scaling.cmake

include("${CMAKE_CURRENT_LIST_DIR}/e2e_metrics.cmake")

foreach(var ONE_THREAD EIGHT_THREADS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=<bench_e2e stdout file>")
  endif()
endforeach()

set(failed FALSE)

read_metric("${ONE_THREAD}" warm_suite throughput_qps warm_1 warm_1_text)
read_metric("${EIGHT_THREADS}" warm_suite throughput_qps warm_8 warm_8_text)
if(warm_8 LESS warm_1)
  message(SEND_ERROR "warm_suite: 8-thread throughput regressed below "
                     "1-thread (${warm_8_text} q/s < ${warm_1_text} q/s)")
  set(failed TRUE)
else()
  message(STATUS "warm_suite: 1T=${warm_1_text} q/s, "
                 "8T=${warm_8_text} q/s — monotonic")
endif()

read_metric("${ONE_THREAD}" cold_table3 wall_s cold_1 cold_1_text)
read_metric("${EIGHT_THREADS}" cold_table3 wall_s cold_8 cold_8_text)
if(cold_8 GREATER_EQUAL cold_1)
  message(SEND_ERROR "cold_table3: 8-thread rebuild is no faster than "
                     "1-thread (${cold_8_text} s >= ${cold_1_text} s)")
  set(failed TRUE)
else()
  message(STATUS "cold_table3: 1T=${cold_1_text} s, "
                 "8T=${cold_8_text} s — faster")
endif()

read_metric("${ONE_THREAD}" cold_table3 setup_s setup_1 setup_1_text)
read_metric("${EIGHT_THREADS}" cold_table3 setup_s setup_8 setup_8_text)
if(setup_8 GREATER_EQUAL setup_1)
  message(SEND_ERROR "cold_table3: 8-thread set-up is no faster than "
                     "1-thread (${setup_8_text} s >= ${setup_1_text} s)")
  set(failed TRUE)
else()
  message(STATUS "cold_table3 set-up: 1T=${setup_1_text} s, "
                 "8T=${setup_8_text} s — faster")
endif()

if(failed)
  message(FATAL_ERROR "thread scaling gate failed")
endif()
