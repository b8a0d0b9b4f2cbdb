# Runs one bench driver at MCOPT_BENCH_SCALE=0.05 and compares its stdout
# byte for byte with a committed golden file:
#
#   cmake -DDRIVER=<exe> -DTHREADS=<n> -DGOLDEN=<file> -P compare.cmake
#
# Both sides are normalized first in two places only: the wall time of
# table_4_1's tuning pass, and the invariant-check count that builds with
# MCOPT_CHECK_INVARIANTS append.  To re-record a golden after a deliberate
# output change:
#
#   MCOPT_BENCH_SCALE=0.05 build/bench/<driver> > tests/golden/<driver>.txt
set(ENV{MCOPT_BENCH_SCALE} 0.05)
unset(ENV{MCOPT_BENCH_CSV_DIR})
execute_process(COMMAND "${DRIVER}" --threads ${THREADS}
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE diagnostics
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR
    "${DRIVER} --threads ${THREADS} exited with ${status}:\n${diagnostics}")
endif()
file(READ "${GOLDEN}" expected)

foreach(side actual expected)
  string(REGEX REPLACE "tuning pass: [0-9.]+ s" "tuning pass: <wall> s"
         ${side} "${${side}}")
  string(REGEX REPLACE "\n\ninvariant checks executed: [0-9]+\n" "\n"
         ${side} "${${side}}")
endforeach()

if(NOT actual STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME_WE)
  set(saved "${CMAKE_CURRENT_BINARY_DIR}/${name}.t${THREADS}.actual.txt")
  file(WRITE "${saved}" "${actual}")
  message(FATAL_ERROR
    "stdout of ${DRIVER} --threads ${THREADS} differs from ${GOLDEN}; "
    "the output is saved in ${saved}")
endif()
