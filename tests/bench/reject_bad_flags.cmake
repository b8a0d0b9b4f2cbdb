# Runs each standalone bench with one malformed numeric flag, and a table
# driver with each malformed MCOPT_BENCH_SCALE, and requires a usage error:
# exit status 2 (not an abort), an error naming the flag or variable, and an
# empty stdout, so the rejection comes before the header and any timed
# work:
#
#   cmake -DHOTLOOP=<exe> -DOBS_OVERHEAD=<exe> -DPARALLEL_SPEEDUP=<exe> \
#         -DTABLE_4_2C=<exe> -P reject_bad_flags.cmake
#
# A case is `exe|name|value`; a name starting with `--` is passed as a flag,
# any other name is set in the environment.
set(cases
    "${HOTLOOP}|--proposals|x"
    "${OBS_OVERHEAD}|--gate-pct|abc"
    "${PARALLEL_SPEEDUP}|--budget|99999999999999999999"
    "${TABLE_4_2C}|MCOPT_BENCH_SCALE|abc"
    "${TABLE_4_2C}|MCOPT_BENCH_SCALE|0.5x"
    "${TABLE_4_2C}|MCOPT_BENCH_SCALE|nan"
    "${TABLE_4_2C}|MCOPT_BENCH_SCALE|1e999"
    "${TABLE_4_2C}|MCOPT_BENCH_SCALE|0.001"
    "${TABLE_4_2C}|MCOPT_BENCH_SCALE|1e300")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 exe)
  list(GET parts 1 name)
  list(GET parts 2 value)
  if(name MATCHES "^--")
    set(command "${exe}" ${name} ${value})
  else()
    set(command ${CMAKE_COMMAND} -E env ${name}=${value} "${exe}")
  endif()
  execute_process(COMMAND ${command}
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  RESULT_VARIABLE status)
  if(NOT status STREQUAL "2")
    message(FATAL_ERROR "${exe} ${name} ${value}: exit ${status}, want 2\n${err}")
  endif()
  string(FIND "${err}" "${name}" named)
  if(named EQUAL -1)
    message(FATAL_ERROR "${exe} ${name} ${value}: error does not name ${name}:\n${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${exe} ${name} ${value}: printed before rejecting:\n${out}")
  endif()
endforeach()
