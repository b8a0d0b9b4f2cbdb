# Runs a table driver with its trace, and then its report, aimed at
# /dev/full, whose writes fail with ENOSPC, and then with its CSV mirror
# aimed at a directory under /dev/full, which cannot exist.  Each run must
# end with exit status 1 and a "cannot write /dev/full..." error.  A driver
# that cannot save what it was asked to save must not report success.
# The report directories (the CSV mirror's, and MCOPT_BENCH_JSON_DIR aimed
# at a directory that does not exist) are checked before any work, so those
# runs must also print nothing:
#
#   cmake -DDRIVER=<tables> [-DDRIVER_ARGS=--table;4.1]
#         -P failed_writes.cmake
set(ENV{MCOPT_BENCH_SCALE} 0.05)
unset(ENV{MCOPT_BENCH_CSV_DIR})
unset(ENV{MCOPT_BENCH_JSON_DIR})
set(missing "${CMAKE_CURRENT_BINARY_DIR}/failed_writes_missing_dir")
file(REMOVE_RECURSE "${missing}")
foreach(flag --trace --report-out MCOPT_BENCH_CSV_DIR MCOPT_BENCH_JSON_DIR)
  set(target /dev/full)
  if(flag STREQUAL "MCOPT_BENCH_JSON_DIR")
    set(target "${missing}")
  endif()
  if(flag MATCHES "^--")
    set(command "${DRIVER}" ${DRIVER_ARGS} --quiet ${flag} ${target})
  else()
    set(command ${CMAKE_COMMAND} -E env ${flag}=${target}
                "${DRIVER}" ${DRIVER_ARGS} --quiet)
  endif()
  execute_process(COMMAND ${command}
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  RESULT_VARIABLE status)
  if(NOT status STREQUAL "1")
    message(FATAL_ERROR "${flag} ${target}: exit ${status}, want 1\n${err}")
  endif()
  string(FIND "${err}" "cannot write ${target}" named)
  if(named EQUAL -1)
    message(FATAL_ERROR
      "${flag} ${target}: no \"cannot write\" error:\n${err}")
  endif()
  if(NOT flag MATCHES "^--" AND NOT out STREQUAL "")
    message(FATAL_ERROR "${flag} ${target}: printed before failing:\n${out}")
  endif()
endforeach()
