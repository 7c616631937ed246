# Adds the bench_e2e target to the root build. CMake includes this file at
# the end of the root project() call when configured with
#
#   -DCMAKE_PROJECT_clouddns_INCLUDE=<repo>/bench/e2e/attach.cmake
#
# bench/e2e/CMakeLists.txt is included at the end of the root CMakeLists.txt
# (CMake allows no add_subdirectory there), so the benchmark compiles with
# the root build's flags and include roots and links the targets src/
# defines.
cmake_language(EVAL CODE
  "cmake_language(DEFER CALL include [[${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt]])")
