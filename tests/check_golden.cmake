# Runs `${CMD}` with no arguments and fails unless it exits 0 and its
# stdout is byte-identical to the committed `${GOLDEN}`: the simulated results
# are pinned, so any drift is a behaviour change. Regenerate with
# scripts/regen_goldens.sh only for a deliberate model change.
#
#   cmake -DCMD=<binary> -DGOLDEN=<file> -P check_golden.cmake
execute_process(COMMAND ${CMD}
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${CMD} exited with ${rc}:\n${out}")
endif()
file(READ ${GOLDEN} golden)
if(NOT out STREQUAL golden)
  get_filename_component(name ${GOLDEN} NAME_WE)
  file(WRITE ${name}.actual.txt "${out}")
  message(FATAL_ERROR "stdout of ${CMD} differs from ${GOLDEN}; "
                      "diff ${GOLDEN} ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual.txt")
endif()
