# Proves that text input reaches the same graph through both of its
# loaders: `socmix measure --edges` (graph::load_edge_list) and
# `graph_pack --edges` (the two-pass streaming packer) followed by
# `socmix measure --pack`. The edge list is deliberately messy: sparse ids,
# duplicate and reversed edges, self loops, comments after whitespace, CRLF
# line ends and no final newline. The --tvd-out dumps must be byte-identical
# and the summary's `n= m= mu=` part equal.
#
# Driven by the pack_parity_text_e2e ctest (see tools/CMakeLists.txt):
#   cmake -DSOCMIX_BIN=<socmix> -DGRAPH_PACK_BIN=<graph_pack> -DOUT_DIR=<dir>
#         -P check_pack_parity.cmake
if(NOT DEFINED SOCMIX_BIN OR NOT DEFINED GRAPH_PACK_BIN OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DSOCMIX_BIN=<socmix> -DGRAPH_PACK_BIN=<graph_pack> -DOUT_DIR=<dir> -P check_pack_parity.cmake")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# 60 vertices with sparse ids 7 + 1009*i: a ring, chords to i+7 and i+13,
# and every fifth edge repeated reversed; a self loop and a comment every
# eleventh line. A small tail component (ids 900001..900003) is left out of
# the largest component by both paths.
set(text "# messy edge list\r\n")
foreach(i RANGE 0 59)
  math(EXPR u "7 + 1009 * ${i}")
  foreach(step 1 7 13)
    math(EXPR j "(${i} + ${step}) % 60")
    math(EXPR v "7 + 1009 * ${j}")
    string(APPEND text "${u}\t${v}\r\n")
    math(EXPR every_fifth "(${i} + ${step}) % 5")
    if(every_fifth EQUAL 0)
      string(APPEND text "  ${v} ${u} 0.5\n")
    endif()
  endforeach()
  math(EXPR every_eleventh "${i} % 11")
  if(every_eleventh EQUAL 0)
    string(APPEND text "${u} ${u}\n   % comment after whitespace\n\n")
  endif()
endforeach()
string(APPEND text "900001 900002\n900002 900003\n900003 900001")
file(WRITE "${OUT_DIR}/messy.txt" "${text}")

set(walk --sources 12 --steps 40)
execute_process(
  COMMAND "${SOCMIX_BIN}" measure --edges "${OUT_DIR}/messy.txt" ${walk}
          --tvd-out "${OUT_DIR}/edges.tvd"
  RESULT_VARIABLE edges_rc OUTPUT_VARIABLE edges_out ERROR_VARIABLE edges_err)
execute_process(
  COMMAND "${GRAPH_PACK_BIN}" --edges "${OUT_DIR}/messy.txt" --out "${OUT_DIR}/messy.smxg"
  RESULT_VARIABLE pack_rc ERROR_VARIABLE pack_err)
execute_process(
  COMMAND "${SOCMIX_BIN}" measure --pack "${OUT_DIR}/messy.smxg" ${walk}
          --tvd-out "${OUT_DIR}/pack.tvd"
  RESULT_VARIABLE packed_rc OUTPUT_VARIABLE packed_out ERROR_VARIABLE packed_err)
if(NOT edges_rc EQUAL 0 OR NOT pack_rc EQUAL 0 OR NOT packed_rc EQUAL 0)
  message(FATAL_ERROR "a run failed: measure --edges ${edges_rc}, graph_pack ${pack_rc}, "
                      "measure --pack ${packed_rc}\n${edges_err}\n${pack_err}\n${packed_err}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${OUT_DIR}/edges.tvd" "${OUT_DIR}/pack.tvd"
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "--tvd-out differs between --edges and --pack")
endif()

string(REGEX MATCH "n=[0-9]+ m=[0-9]+ mu=[^\n]*" edges_mu "${edges_out}")
string(REGEX MATCH "n=[0-9]+ m=[0-9]+ mu=[^\n]*" packed_mu "${packed_out}")
if(edges_mu STREQUAL "" OR NOT edges_mu STREQUAL packed_mu)
  message(FATAL_ERROR "mu= lines differ:\n  --edges: ${edges_mu}\n  --pack:  ${packed_mu}")
endif()
if(NOT edges_mu MATCHES "^n=60 ")
  message(FATAL_ERROR "expected the 60-vertex component, got: ${edges_mu}")
endif()
