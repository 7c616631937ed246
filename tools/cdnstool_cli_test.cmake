# cdnstool's option handling and its analytics commands, end to end:
#  - every malformed option value, and a valued option given no value,
#    prints usage and exits 2 before any work is done;
#  - simulate, inspect and report succeed on a small .nz week, and
#    inspect's table accounts for every record it counts;
#  - report on an empty capture prints no NaN share.
#
#   cmake -DCDNSTOOL=<cdnstool> -DPYTHON=<python3> -DWORK=<dir>
#         -P cdnstool_cli_test.cmake
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

function(expect_usage)
  execute_process(COMMAND ${CDNSTOOL} ${ARGN}
                  RESULT_VARIABLE result OUTPUT_QUIET ERROR_QUIET)
  if(NOT result EQUAL 2)
    message(FATAL_ERROR "cdnstool ${ARGN}: expected exit 2, got ${result}")
  endif()
endfunction()

# Runs cdnstool with ARGN; fails unless it exits 0. Stdout lands in `out`.
function(run_ok out)
  execute_process(COMMAND ${CDNSTOOL} ${ARGN}
                  RESULT_VARIABLE result OUTPUT_VARIABLE text
                  ERROR_VARIABLE err)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "cdnstool ${ARGN}: exit ${result}\n${text}${err}")
  endif()
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

set(week ${WORK}/nz.cdns)
expect_usage(simulate --year 2021 --out ${week})
expect_usage(simulate --vantage de --out ${week})
expect_usage(simulate --queries -1 --out ${week})
expect_usage(simulate --queries 1e5 --out ${week})
expect_usage(simulate --out ${week} --queries)
expect_usage(simulate --queries --out ${week})
expect_usage(simulate --seed abc --out ${week})
expect_usage(simulate --seed -1 --out ${week})
expect_usage(simulate --anonymize-key 1e3 --out ${week})
expect_usage(anonymize ${week} ${WORK}/anonymized.cdns --key x)
expect_usage(inspect ${week} --top 0)
expect_usage(inspect ${week} --top x)
expect_usage(dig example.nl --edns 70000)
expect_usage(dig example.nl --edns 0)
if(EXISTS ${week})
  message(FATAL_ERROR "a rejected simulate still wrote ${week}")
endif()

run_ok(ignored simulate --vantage nz --queries 2000 --out ${week})
run_ok(ignored report ${week})
foreach(by rcode family)
  run_ok(text inspect ${week} --by ${by})
  if(NOT text MATCHES "^([0-9]+) records\n")
    message(FATAL_ERROR "inspect --by ${by}: no record count\n${text}")
  endif()
  set(records ${CMAKE_MATCH_1})
  # Table rows sit between the dashed rule and the first blank line.
  string(REGEX MATCH "\n-+\n(.*)" tail "${text}")
  string(FIND "${CMAKE_MATCH_1}" "\n\n" end)
  string(SUBSTRING "${CMAKE_MATCH_1}" 0 ${end} rows)
  string(REPLACE "\n" ";" rows "${rows}")
  set(sum 0)
  foreach(row IN LISTS rows)
    if(NOT row MATCHES "^[^ ]+ +([0-9,]+) ")
      message(FATAL_ERROR "inspect --by ${by}: bad row '${row}'")
    endif()
    string(REPLACE "," "" count "${CMAKE_MATCH_1}")
    math(EXPR sum "${sum} + ${count}")
  endforeach()
  if(NOT sum EQUAL records)
    message(FATAL_ERROR
            "inspect --by ${by}: table sums to ${sum}, not ${records}")
  endif()
endforeach()

# A header-only pcap imports as an empty capture.
set(empty_pcap ${WORK}/empty.pcap)
execute_process(
  COMMAND ${PYTHON} -c
          "import struct, sys; open(sys.argv[1], 'wb').write(struct.pack('<IHHiIII', 0xa1b2c3d4, 2, 4, 0, 0, 65535, 1))"
          ${empty_pcap}
  RESULT_VARIABLE result)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "could not write ${empty_pcap}")
endif()
run_ok(ignored import-pcap ${empty_pcap} ${WORK}/empty.cdns)
run_ok(text report ${WORK}/empty.cdns)
string(TOLOWER "${text}" lower)
if(lower MATCHES "nan")
  message(FATAL_ERROR "report on an empty capture printed NaN:\n${text}")
endif()

file(REMOVE_RECURSE ${WORK})
