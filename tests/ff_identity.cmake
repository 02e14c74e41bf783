# Runs EXE with ARGS ('|'-separated) twice, with idle fast-forward on and
# with --no-ff, and fails unless both runs exit 0 and agree exactly: the
# printed output, and every stat at full precision in the --stats-json
# files (wall-clock fields blanked).  JSON files go to OUT_DIR (created if
# missing; give each test its own).
#
#   cmake -DEXE=path -DOUT_DIR=dir "-DARGS=-w|BICG|--stats" -P ff_identity.cmake
string(REPLACE "|" ";" args "${ARGS}")
file(MAKE_DIRECTORY "${OUT_DIR}")
foreach(variant ff noff)
  set(extra "")
  if(variant STREQUAL "noff")
    set(extra "--no-ff")
  endif()
  set(json "${OUT_DIR}/ff_identity_${variant}.json")
  execute_process(COMMAND "${EXE}" ${args} ${extra} --stats-json "${json}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out_${variant}
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "'${EXE} ${args} ${extra}' exited with '${rc}'\n"
                        "stderr:\n${err}")
  endif()
  file(READ "${json}" stats_${variant})
  string(REGEX REPLACE "wall_seconds\":[^,}]*" "wall_seconds\":0"
         stats_${variant} "${stats_${variant}}")
endforeach()
if(NOT out_ff STREQUAL out_noff)
  message(FATAL_ERROR "fast-forward and --no-ff output differ\n"
                      "fast-forward:\n${out_ff}\n--no-ff:\n${out_noff}")
endif()
if(NOT stats_ff STREQUAL stats_noff)
  message(FATAL_ERROR "fast-forward and --no-ff --stats-json files differ: "
                      "${OUT_DIR}/ff_identity_ff.json vs ${OUT_DIR}/ff_identity_noff.json")
endif()
