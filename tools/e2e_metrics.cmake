# Reads metric lines from bench_e2e stdout files, for the CI gates
# (tools/check_scaling.cmake, tools/check_alloc_budget.cmake). bench_e2e
# prints one `<workload> <metric> <value> <unit>` line per metric, with
# the value in printf %g form. Include this file from a -P script.

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
