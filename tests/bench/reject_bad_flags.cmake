# Runs each standalone bench with one malformed numeric flag and requires a
# usage error: exit status 2 (not an abort), an error naming the flag, and
# an empty stdout, so the rejection comes before the header and any timed
# work:
#
#   cmake -DHOTLOOP=<exe> -DOBS_OVERHEAD=<exe> -DPARALLEL_SPEEDUP=<exe> \
#         -P reject_bad_flags.cmake
set(cases
    "${HOTLOOP}|--proposals|x"
    "${OBS_OVERHEAD}|--gate-pct|abc"
    "${PARALLEL_SPEEDUP}|--budget|99999999999999999999")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 exe)
  list(GET parts 1 flag)
  list(GET parts 2 value)
  execute_process(COMMAND "${exe}" ${flag} ${value}
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  RESULT_VARIABLE status)
  if(NOT status STREQUAL "2")
    message(FATAL_ERROR "${exe} ${flag} ${value}: exit ${status}, want 2\n${err}")
  endif()
  string(FIND "${err}" "${flag}" named)
  if(named EQUAL -1)
    message(FATAL_ERROR "${exe} ${flag} ${value}: error does not name ${flag}:\n${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${exe} ${flag} ${value}: printed before rejecting:\n${out}")
  endif()
endforeach()
