# Self-test for clouddns_lint: seed a scratch tree with known violations
# and assert the linter (a) fails, (b) reports each violation with the
# correct file:line, and (c) honours a reasoned lint:allow suppression.
#
# Driven by ctest:
#   cmake -DLINT=<path-to-clouddns_lint> -DWORK=<scratch-dir> -P lint_selftest.cmake

if(NOT LINT OR NOT WORK)
  message(FATAL_ERROR "pass -DLINT=<linter> and -DWORK=<scratch dir>")
endif()

file(REMOVE_RECURSE "${WORK}")
# The scratch file sits under a path containing /analysis/ so the
# emit-path-scoped rules (unordered-iter, float-accumulator) apply.
set(scratch "${WORK}/src/analysis/scratch.cc")

file(WRITE "${scratch}" "#include <cstdlib>
#include <unordered_map>
void Violations() {
  int a = rand();
  float shares = 0.0f;
  std::unordered_map<int, int> counts;
  for (auto& [k, v] : counts) a += v;
  int ok = rand();  // lint:allow(no-rand): selftest exercises suppression
  (void)a; (void)shares; (void)ok;
}
")

execute_process(
  COMMAND "${LINT}" "${WORK}/src"
  RESULT_VARIABLE status
  ERROR_VARIABLE diagnostics
  OUTPUT_VARIABLE stdout_text)

if(status EQUAL 0)
  message(FATAL_ERROR "linter passed a tree with seeded violations")
endif()

foreach(expected
    "scratch.cc:4: error: .no-rand."
    "scratch.cc:5: error: .float-accumulator."
    "scratch.cc:7: error: .unordered-iter.")
  if(NOT diagnostics MATCHES "${expected}")
    message(FATAL_ERROR
      "missing diagnostic matching '${expected}' in:\n${diagnostics}")
  endif()
endforeach()

if(diagnostics MATCHES "scratch.cc:8")
  message(FATAL_ERROR
    "suppressed line 8 was still reported:\n${diagnostics}")
endif()
if(NOT diagnostics MATCHES "1 suppressed")
  message(FATAL_ERROR
    "suppression was not counted:\n${diagnostics}")
endif()

# The fault-rng rule: Rng construction in the fault module must derive
# its seed with SubstreamSeed on the construction line. Line 3 (a bare
# seed) must fire; line 4 (substream-derived) must not.
set(fault_scratch "${WORK}/src/sim/fault_scratch.cc")
file(WRITE "${fault_scratch}" "#include <cstdint>
void FaultRng(std::uint64_t seed) {
  Rng bad(seed);
  Rng ok(SubstreamSeed(seed, 1));
  (void)bad; (void)ok;
}
")
execute_process(
  COMMAND "${LINT}" "${WORK}/src"
  RESULT_VARIABLE status
  ERROR_VARIABLE diagnostics
  OUTPUT_VARIABLE stdout_text)
if(status EQUAL 0)
  message(FATAL_ERROR "linter passed a tree with a fault-rng violation")
endif()
if(NOT diagnostics MATCHES "fault_scratch.cc:3: error: .fault-rng.")
  message(FATAL_ERROR
    "missing fault-rng diagnostic for line 3 in:\n${diagnostics}")
endif()
if(diagnostics MATCHES "fault_scratch.cc:4")
  message(FATAL_ERROR
    "SubstreamSeed-derived Rng was wrongly flagged:\n${diagnostics}")
endif()
file(REMOVE "${fault_scratch}")

# The hot-alloc rule fires only in files tagged `lint:hot-path`: string
# key construction on line 4/5 must be reported, the reasoned allow on
# line 6 must be honoured, and an untagged file with the same code must
# pass untouched.
set(hot_scratch "${WORK}/src/server/hot_scratch.cc")
file(WRITE "${hot_scratch}" "// scratch server
// lint:hot-path
void Hot() {
  auto key = name.ToKey();
  std::string rendered = name.ToString();
  std::string path = Render();  // lint:allow(hot-alloc): once per file
  (void)key; (void)rendered; (void)path;
}
")
set(cold_scratch "${WORK}/src/server/cold_scratch.cc")
file(WRITE "${cold_scratch}" "// scratch server, untagged
void Cold() {
  std::string rendered = name.ToString();
  (void)rendered;
}
")
execute_process(
  COMMAND "${LINT}" "${WORK}/src"
  RESULT_VARIABLE status
  ERROR_VARIABLE diagnostics
  OUTPUT_VARIABLE stdout_text)
if(status EQUAL 0)
  message(FATAL_ERROR "linter passed a tree with hot-alloc violations")
endif()
foreach(expected
    "hot_scratch.cc:4: error: .hot-alloc."
    "hot_scratch.cc:5: error: .hot-alloc.")
  if(NOT diagnostics MATCHES "${expected}")
    message(FATAL_ERROR
      "missing diagnostic matching '${expected}' in:\n${diagnostics}")
  endif()
endforeach()
if(diagnostics MATCHES "hot_scratch.cc:6")
  message(FATAL_ERROR
    "reasoned lint:allow(hot-alloc) was still reported:\n${diagnostics}")
endif()
if(diagnostics MATCHES "cold_scratch.cc")
  message(FATAL_ERROR
    "hot-alloc fired in an untagged file:\n${diagnostics}")
endif()
file(REMOVE "${hot_scratch}" "${cold_scratch}")

# The io-unchecked rule: raw fopen/fwrite/ofstream anywhere outside
# src/base/io* must fire (lines 4-6); a reasoned allow is honoured
# (line 7); the same calls inside base/io itself must pass untouched.
set(io_scratch "${WORK}/src/capture/io_scratch.cc")
file(WRITE "${io_scratch}" "#include <cstdio>
#include <fstream>
void RawIo(const char* path) {
  std::FILE* f = std::fopen(path, \"wb\");
  std::fwrite(path, 1, 1, f);
  std::ofstream out(path);
  std::FILE* g = std::fopen(path, \"rb\");  // lint:allow(io-unchecked): selftest waiver
  (void)f; (void)g;
}
")
set(io_base_scratch "${WORK}/src/base/io_scratch.cc")
file(WRITE "${io_base_scratch}" "#include <cstdio>
void Primitive(const char* path) {
  std::FILE* f = std::fopen(path, \"wb\");
  std::fwrite(path, 1, 1, f);
  (void)f;
}
")
execute_process(
  COMMAND "${LINT}" "${WORK}/src"
  RESULT_VARIABLE status
  ERROR_VARIABLE diagnostics
  OUTPUT_VARIABLE stdout_text)
if(status EQUAL 0)
  message(FATAL_ERROR "linter passed a tree with io-unchecked violations")
endif()
foreach(expected
    "io_scratch.cc:4: error: .io-unchecked."
    "io_scratch.cc:5: error: .io-unchecked."
    "io_scratch.cc:6: error: .io-unchecked.")
  if(NOT diagnostics MATCHES "${expected}")
    message(FATAL_ERROR
      "missing diagnostic matching '${expected}' in:\n${diagnostics}")
  endif()
endforeach()
if(diagnostics MATCHES "io_scratch.cc:7")
  message(FATAL_ERROR
    "reasoned lint:allow(io-unchecked) was still reported:\n${diagnostics}")
endif()
if(diagnostics MATCHES "io_base_scratch.cc")
  message(FATAL_ERROR
    "io-unchecked fired inside src/base/io*:\n${diagnostics}")
endif()
file(REMOVE "${io_scratch}" "${io_base_scratch}")

# The escape pass watches the zone image's borrowers too: a Zone::Find
# span kept in a server member outlives the image it borrows from, so
# line 8 must be flagged borrow-member.
set(span_scratch "${WORK}/src/server/span_member.h")
file(WRITE "${span_scratch}" "#pragma once
#include <span>
#include \"zone/zone.h\"
class GlueMemo {
 public:
  void Remember(const Zone& zone, const Name& cut) { ns_ = zone.Find(cut, kNs); }
 private:
  std::span<const ResourceRecord> ns_;
};
")
execute_process(
  COMMAND "${LINT}" "${WORK}/src"
  RESULT_VARIABLE status
  ERROR_VARIABLE diagnostics
  OUTPUT_VARIABLE stdout_text)
if(status EQUAL 0)
  message(FATAL_ERROR "linter passed a stored Zone::Find span")
endif()
if(NOT diagnostics MATCHES "span_member.h:8: error: .borrow-member.")
  message(FATAL_ERROR
    "missing borrow-member diagnostic for line 8 in:\n${diagnostics}")
endif()
file(REMOVE "${span_scratch}")

# A suppression without a reason must itself be flagged.
file(WRITE "${scratch}" "#include <cstdlib>
void NoReason() {
  int a = rand();  // lint:allow(no-rand)
  (void)a;
}
")
execute_process(
  COMMAND "${LINT}" "${WORK}/src"
  RESULT_VARIABLE status
  ERROR_VARIABLE diagnostics
  OUTPUT_VARIABLE stdout_text)
if(status EQUAL 0 OR NOT diagnostics MATCHES "bad-suppression")
  message(FATAL_ERROR
    "reasonless lint:allow was not rejected:\n${diagnostics}")
endif()

file(REMOVE_RECURSE "${WORK}")
message(STATUS "lint selftest passed")
