# Injected into the repository's own top-level project with
#   cmake -DCMAKE_PROJECT_INCLUDE=<this file>
# so the harness is compiled with exactly the flags, definitions and
# library targets the repository's CMakeLists.txt sets up. The include is
# deferred to the end of the top-level directory: targets take their
# compile options and include paths from directory properties set after
# project(). EVAL captures this file's directory now; a deferred call's
# arguments are otherwise expanded only when it runs. The guard keeps a
# second project() call from adding the target twice.
include_guard(GLOBAL)
cmake_language(EVAL CODE
  "cmake_language(DEFER DIRECTORY \"${CMAKE_SOURCE_DIR}\"
     CALL include \"${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt\")")
