# Runs one bench driver at MCOPT_BENCH_SCALE=<SCALE> (default 0.05) and
# compares its stdout byte for byte with committed golden files,
# concatenated in order:
#
#   cmake -DDRIVER=<exe> [-DDRIVER_ARGS=<arg;...>] [-DTHREADS=<n>]
#         [-DSCALE=<x>] -DGOLDEN=<file;...> -P compare.cmake
#
# THREADS is passed as `--threads <n>`; an example, which takes no flags,
# runs without it.
#
# Both sides are normalized first in two places only: the wall time of
# Table 4.1's tuning pass, and the invariant-check count that builds with
# MCOPT_CHECK_INVARIANTS append.  To re-record a golden after a deliberate
# output change:
#
#   MCOPT_BENCH_SCALE=0.05 build/bench/<driver> > tests/golden/<driver>.txt
#   MCOPT_BENCH_SCALE=0.05 build/bench/tables --table 4.2a \
#       > tests/golden/table_4_2a.txt     # and likewise for each table
#
# and for the full-scale goldens under tests/golden/full/:
#
#   MCOPT_BENCH_SCALE=1 build/bench/tables > tests/golden/full/tables_all.txt
#
# and for an example:
#
#   build/examples/board_ordering > tests/golden/board_ordering.txt
if(NOT DEFINED SCALE)
  set(SCALE 0.05)
endif()
set(ENV{MCOPT_BENCH_SCALE} ${SCALE})
unset(ENV{MCOPT_BENCH_CSV_DIR})
set(command "${DRIVER}" ${DRIVER_ARGS})
if(DEFINED THREADS)
  list(APPEND command --threads ${THREADS})
endif()
execute_process(COMMAND ${command}
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE diagnostics
                RESULT_VARIABLE status)
list(JOIN command " " command)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${command} exited with ${status}:\n${diagnostics}")
endif()
set(expected "")
foreach(golden IN LISTS GOLDEN)
  file(READ "${golden}" text)
  string(APPEND expected "${text}")
endforeach()

foreach(side actual expected)
  string(REGEX REPLACE "tuning pass: [0-9.]+ s" "tuning pass: <wall> s"
         ${side} "${${side}}")
  string(REGEX REPLACE "\n\ninvariant checks executed: [0-9]+\n" "\n"
         ${side} "${${side}}")
endforeach()

if(NOT actual STREQUAL expected)
  # Named after the one golden, or after the driver for a concatenation.
  list(LENGTH GOLDEN goldens)
  if(goldens EQUAL 1)
    get_filename_component(name "${GOLDEN}" NAME_WE)
  else()
    get_filename_component(name "${DRIVER}" NAME_WE)
  endif()
  if(NOT SCALE STREQUAL "0.05")
    string(PREPEND name "scale${SCALE}_")
  endif()
  if(DEFINED THREADS)
    string(APPEND name ".t${THREADS}")
  endif()
  set(saved "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual.txt")
  file(WRITE "${saved}" "${actual}")
  list(JOIN GOLDEN " + " golden)
  message(FATAL_ERROR
    "stdout of ${command} differs from ${golden}; "
    "the output is saved in ${saved}")
endif()
