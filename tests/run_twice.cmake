# Runs `${RUNNER} ${SPEC}` twice and fails unless both runs exit 0 and print
# byte-identical stdout: the determinism contract (same spec, same seed =>
# same output) checked on a committed scenario. The first run must also match
# the scenario's committed golden stdout (see check_golden.cmake).
#
#   cmake -DRUNNER=<scenario_runner> -DSPEC=<spec.json> -DGOLDEN=<file>
#         -P run_twice.cmake
foreach(run 1 2)
  execute_process(COMMAND ${RUNNER} ${SPEC}
                  OUTPUT_VARIABLE out${run}
                  RESULT_VARIABLE rc${run})
  if(NOT rc${run} EQUAL 0)
    message(FATAL_ERROR "run ${run} of ${SPEC} exited with ${rc${run}}:\n${out${run}}")
  endif()
endforeach()
if(NOT out1 STREQUAL out2)
  get_filename_component(name ${SPEC} NAME_WE)
  file(WRITE ${name}.run1.txt "${out1}")
  file(WRITE ${name}.run2.txt "${out2}")
  message(FATAL_ERROR "two runs of ${SPEC} printed different stdout; "
                      "diff ${name}.run1.txt ${name}.run2.txt")
endif()
file(READ ${GOLDEN} golden)
if(NOT out1 STREQUAL golden)
  get_filename_component(name ${SPEC} NAME_WE)
  file(WRITE ${name}.actual.txt "${out1}")
  message(FATAL_ERROR "stdout of ${SPEC} differs from ${GOLDEN}; "
                      "diff ${GOLDEN} ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual.txt")
endif()
