# Runs one bench binary as a ctest case (registered in bench/CMakeLists.txt):
#
#   cmake -DBENCH=<exe> "-DARGS=<args>" -DEXPECT_EXIT=2 -P check_bench.cmake
#     passes only if the bench exits with exactly that status;
#   cmake -DBENCH=<exe> "-DARGS=<args>" -DGOLDEN=<file> -P check_bench.cmake
#     passes only if it exits 0 and its stdout equals <file> byte for byte.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${args} RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(DEFINED EXPECT_EXIT)
  if(NOT status STREQUAL EXPECT_EXIT)
    message(FATAL_ERROR "${BENCH} ${ARGS}: exit status ${status}, expected ${EXPECT_EXIT}\n${err}")
  endif()
  return()
endif()
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "${BENCH} ${ARGS}: exit status ${status}\n${err}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT out STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME)
  set(actual "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
  file(WRITE "${actual}" "${out}")
  message(FATAL_ERROR "stdout of `${BENCH} ${ARGS}` differs from the golden file:\n"
          "  diff -u ${GOLDEN} ${actual}\n"
          "If the change is intended, copy the new output over the golden file "
          "and name the change in CHANGES.md.")
endif()
