# Proves that the command-line tools and the bench drivers refuse options
# they do not know before doing any work: a removed flag (--reorder and
# --sharded on `socmix measure` or a driver, whose ordering and shard
# geometry are now chosen by graph_pack) or a misspelled one exits non-zero
# with a message naming it, prints no measurement, and writes no pack.
#
# Driven by the cli_unknown_options_e2e ctest (see tools/CMakeLists.txt):
#   cmake -DSOCMIX_BIN=<socmix> -DGRAPH_PACK_BIN=<graph_pack>
#         -DFIGURE_BIN=<table1_datasets> -DMICRO_BIN=<micro_shard> -DOUT_DIR=<dir>
#         -P check_unknown_options.cmake
if(NOT DEFINED SOCMIX_BIN OR NOT DEFINED GRAPH_PACK_BIN OR NOT DEFINED FIGURE_BIN
   OR NOT DEFINED MICRO_BIN OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DSOCMIX_BIN=<socmix> -DGRAPH_PACK_BIN=<graph_pack> -DFIGURE_BIN=<driver> -DMICRO_BIN=<driver> -DOUT_DIR=<dir> -P check_unknown_options.cmake")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# expect_rejected(<option> <command...>): the command must fail, name the
# option on stderr and print nothing on stdout.
function(expect_rejected option)
  execute_process(
    COMMAND ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE run_stdout ERROR_VARIABLE run_stderr)
  if(rc EQUAL 0)
    message(FATAL_ERROR "--${option} was accepted (exit 0):\n${run_stdout}\n${run_stderr}")
  endif()
  string(FIND "${run_stderr}" "unknown option --${option}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "the error does not name --${option} (exit ${rc}):\n${run_stderr}")
  endif()
  if(NOT run_stdout STREQUAL "")
    message(FATAL_ERROR "work started before --${option} was rejected:\n${run_stdout}")
  endif()
endfunction()

set(measure "${SOCMIX_BIN}" measure --dataset "Physics 1" --nodes 300)
expect_rejected(reorder ${measure} --reorder bfs)
expect_rejected(sharded ${measure} --sharded 4)
expect_rejected(reorder "${SOCMIX_BIN}" sybil --dataset "Physics 1" --nodes 300
                --reorder rcm)

# The bench drivers: one figure driver (options read through
# ExperimentConfig::from_cli) and one micro driver (its own reads after
# bench::Harness::configure_process).
expect_rejected(reorder "${FIGURE_BIN}" --scale 0.002 --sources 2 --steps 3
                --reorder bfs)
expect_rejected(sharded "${MICRO_BIN}" --quick --sharded 4)

set(pack "${GRAPH_PACK_BIN}" --dataset "Physics 1" --nodes 300
    --out "${OUT_DIR}/physics.smxg")
expect_rejected(frontier ${pack} --frontier off)
if(EXISTS "${OUT_DIR}/physics.smxg")
  message(FATAL_ERROR "graph_pack wrote a pack despite an unknown option")
endif()

# Without the stray option the same pack is written, now BFS-ordered, and
# measures.
execute_process(COMMAND ${pack} --reorder bfs RESULT_VARIABLE pack_rc)
execute_process(
  COMMAND "${SOCMIX_BIN}" measure --pack "${OUT_DIR}/physics.smxg" --sources 8 --steps 10
  RESULT_VARIABLE rc OUTPUT_VARIABLE run_stdout ERROR_VARIABLE run_stderr)
if(NOT pack_rc EQUAL 0 OR NOT rc EQUAL 0 OR NOT run_stdout MATCHES "mu=")
  message(FATAL_ERROR "pack (${pack_rc}) + measure (${rc}) failed:\n${run_stdout}\n${run_stderr}")
endif()
