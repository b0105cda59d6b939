# Proves that `socmix measure --tvd-out FILE --sources 0` is refused before
# anything is loaded: with no sources there are no trajectories to write,
# so the run exits 2, prints no measurement and leaves no file behind. An
# input whose largest component is empty has no trajectories either: that
# run fails (exit 1) after the load, again without a file.
#
# Driven by the measure_tvd_out_needs_sources_e2e ctest:
#   cmake -DSOCMIX_BIN=<socmix> -DOUT_DIR=<dir> -P check_tvd_out_sources.cmake
if(NOT DEFINED SOCMIX_BIN OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DSOCMIX_BIN=<socmix> -DOUT_DIR=<dir> -P check_tvd_out_sources.cmake")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(
  COMMAND "${SOCMIX_BIN}" measure --dataset "Physics 1" --nodes 300 --sources 0
          --tvd-out "${OUT_DIR}/none.tvd"
  RESULT_VARIABLE rc OUTPUT_VARIABLE run_stdout ERROR_VARIABLE run_stderr)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit 2, got ${rc}:\n${run_stdout}\n${run_stderr}")
endif()
if(NOT run_stderr MATCHES "--tvd-out" OR NOT run_stdout STREQUAL "")
  message(FATAL_ERROR "expected only a --tvd-out refusal on stderr:\n${run_stdout}\n${run_stderr}")
endif()
if(EXISTS "${OUT_DIR}/none.tvd")
  message(FATAL_ERROR "a --tvd-out file was written")
endif()

file(WRITE "${OUT_DIR}/empty.txt" "# no edges\n")
execute_process(
  COMMAND "${SOCMIX_BIN}" measure --edges "${OUT_DIR}/empty.txt" --sources 4
          --tvd-out "${OUT_DIR}/empty.tvd"
  RESULT_VARIABLE rc OUTPUT_VARIABLE run_stdout ERROR_VARIABLE run_stderr)
if(NOT rc EQUAL 1 OR NOT run_stderr MATCHES "no sampled trajectories")
  message(FATAL_ERROR "an empty graph should fail --tvd-out (exit ${rc}):\n${run_stderr}")
endif()
if(EXISTS "${OUT_DIR}/empty.tvd")
  message(FATAL_ERROR "a --tvd-out file was written for an empty graph")
endif()
