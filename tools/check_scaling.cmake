# Thread-scaling gate over bench_e2e output. Two runs of the same
# workloads, one at --threads 1 and one at --threads 8, each print
# `<workload> <metric> <value> <unit>` lines on stdout. The gate holds two
# conditions:
#
#   - warm_suite throughput_qps at 8 threads >= at 1 thread. The sharded
#     read/scan path has no serial merge barrier, so adding workers must
#     never cost queries/second; a drop means a new serial section or
#     false sharing crept into the hot path.
#   - cold_table3 wall_s at 8 threads < at 1 thread. A cache-cleared
#     rebuild must get strictly faster with workers, or the parallel zone
#     build / signing / simulation / block-parallel codec path has stopped
#     pulling its weight.
#
# Usage:
#   bench_e2e --workload cold_table3 --threads 1 --seconds 1 >  e2e_1t.txt
#   bench_e2e --workload warm_suite  --threads 1 --seconds 3 >> e2e_1t.txt
#   (the same at --threads 8 into e2e_8t.txt)
#   cmake -DONE_THREAD=e2e_1t.txt -DEIGHT_THREADS=e2e_8t.txt \
#         -P tools/check_scaling.cmake

# Converts a printf %g value ("7.74", "1.03e+06", "0.000123") to an
# integer count of millionths, so the comparisons stay integer arithmetic.
function(to_micro value out)
  if(NOT value MATCHES "^([0-9]+)(\\.([0-9]*))?([eE]([-+]?)0*([0-9]+))?$")
    message(FATAL_ERROR "not a number: '${value}'")
  endif()
  set(digits "${CMAKE_MATCH_1}${CMAKE_MATCH_3}")
  string(LENGTH "${CMAKE_MATCH_3}" frac_len)
  set(exp 0)
  if(NOT "${CMAKE_MATCH_6}" STREQUAL "")
    set(exp "${CMAKE_MATCH_5}${CMAKE_MATCH_6}")
  endif()
  math(EXPR shift "${exp} - ${frac_len} + 6")
  string(REGEX REPLACE "^0+([0-9])" "\\1" digits "${digits}")
  if(shift GREATER_EQUAL 0)
    string(REPEAT "0" ${shift} zeros)
    set(result "${digits}${zeros}")
  else()
    math(EXPR keep "0 - ${shift}")
    string(LENGTH "${digits}" len)
    if(len LESS_EQUAL keep)
      set(result 0)
    else()
      math(EXPR len "${len} - ${keep}")
      string(SUBSTRING "${digits}" 0 ${len} result)
    endif()
  endif()
  set(${out} "${result}" PARENT_SCOPE)
endfunction()

# Reads `<workload> <metric>` from a bench_e2e stdout file into `out`
# (integer millionths) and the printed value into `out_text`.
function(read_metric file workload metric out out_text)
  if(NOT EXISTS "${file}")
    message(FATAL_ERROR "bench_e2e output not found: ${file}")
  endif()
  file(STRINGS "${file}" lines REGEX "^${workload} ${metric} ")
  list(LENGTH lines count)
  if(NOT count EQUAL 1)
    message(FATAL_ERROR "${file}: expected one '${workload} ${metric}' "
                        "line, found ${count}")
  endif()
  string(REGEX REPLACE "^${workload} ${metric} ([^ ]+) .*$" "\\1" value
                       "${lines}")
  to_micro("${value}" micro)
  set(${out} "${micro}" PARENT_SCOPE)
  set(${out_text} "${value}" PARENT_SCOPE)
endfunction()

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

if(failed)
  message(FATAL_ERROR "thread scaling gate failed")
endif()
