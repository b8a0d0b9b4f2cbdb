# Runs a table driver with its trace, and then each export, aimed at
# /dev/full, whose writes fail with ENOSPC, and then with its CSV mirror
# aimed at a directory under /dev/full, which cannot exist.  Each run must
# end with exit status 1 and a "cannot write /dev/full..." error.  A driver
# that cannot save what it was asked to save must not report success:
#
#   cmake -DDRIVER=<table_4_1> -P failed_writes.cmake
set(ENV{MCOPT_BENCH_SCALE} 0.05)
unset(ENV{MCOPT_BENCH_CSV_DIR})
foreach(flag --trace --metrics-out --profile-out --prom-out --timeline-out
             MCOPT_BENCH_CSV_DIR)
  if(flag MATCHES "^--")
    set(command "${DRIVER}" --quiet ${flag} /dev/full)
  else()
    set(command ${CMAKE_COMMAND} -E env ${flag}=/dev/full "${DRIVER}" --quiet)
  endif()
  execute_process(COMMAND ${command}
                  OUTPUT_QUIET
                  ERROR_VARIABLE err
                  RESULT_VARIABLE status)
  if(NOT status STREQUAL "1")
    message(FATAL_ERROR "${flag} /dev/full: exit ${status}, want 1\n${err}")
  endif()
  string(FIND "${err}" "cannot write /dev/full" named)
  if(named EQUAL -1)
    message(FATAL_ERROR "${flag} /dev/full: no \"cannot write\" error:\n${err}")
  endif()
endforeach()
