# Checks bench_paper's output against the committed bench_output.txt,
# the file EXPERIMENTS.md transcribes its numbers from. Each report sits
# under a "===== bench_paper --only <id> =====" header in both files. The
# run must print exactly the ids the committed file has, and each of its
# sections must equal the committed section of that id byte for byte.
#
#   cmake -DREPORTS=<bench_paper stdout> -DCOMMITTED=<bench_output.txt>
#         -P check_paper_reports.cmake
file(READ ${REPORTS} reports)
file(READ ${COMMITTED} committed)

# The report ids of `text`, in order.
function(section_ids text out)
  string(REGEX MATCHALL "===== bench_paper --only [a-z0-9]+ =====\n"
         headers "${text}")
  set(ids)
  foreach(header IN LISTS headers)
    string(REGEX REPLACE "^===== bench_paper --only ([a-z0-9]+) =====\n$"
           "\\1" id "${header}")
    list(APPEND ids ${id})
  endforeach()
  set(${out} ${ids} PARENT_SCOPE)
endfunction()

# The section of report `id` in `text`: the lines after its header, up to
# the next "===== " header or the end of the file.
function(section text id out)
  set(header "===== bench_paper --only ${id} =====\n")
  string(FIND "${text}" "${header}" begin)
  string(LENGTH "${header}" length)
  math(EXPR begin "${begin} + ${length}")
  string(SUBSTRING "${text}" ${begin} -1 body)
  string(FIND "${body}" "\n===== " end)
  if(NOT end EQUAL -1)
    math(EXPR end "${end} + 1")
    string(SUBSTRING "${body}" 0 ${end} body)
  endif()
  set(${out} "${body}" PARENT_SCOPE)
endfunction()

section_ids("${reports}" printed)
section_ids("${committed}" expected)
if(NOT expected)
  message(FATAL_ERROR "${COMMITTED} has no bench_paper sections")
endif()
if(NOT printed STREQUAL expected)
  message(FATAL_ERROR "bench_paper printed reports [${printed}], but "
                      "${COMMITTED} has [${expected}]")
endif()

set(failed)
foreach(id IN LISTS expected)
  section("${reports}" ${id} got)
  section("${committed}" ${id} want)
  if(NOT got STREQUAL want)
    message(SEND_ERROR "report ${id} differs from ${COMMITTED}\n"
                       "--- printed:\n${got}--- committed:\n${want}")
    list(APPEND failed ${id})
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "reports differing from ${COMMITTED}: ${failed}")
endif()
list(LENGTH expected count)
message(STATUS "${count} paper reports match ${COMMITTED}")
