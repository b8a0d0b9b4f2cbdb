# Runs hotloop with MCOPT_BENCH_JSON_DIR unset in an empty directory.  It
# must exit 0, say on stdout that no JSON report was written, and leave the
# directory empty.  --gate-pct 1000: a 20,000-proposal, one-rep timing
# cannot hold the default 1% off-path gate, and only the report is checked.
#
#   cmake -DHOTLOOP=<hotloop> -DWORKDIR=<dir> -P json_report_needs_dir.cmake
unset(ENV{MCOPT_BENCH_JSON_DIR})
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${HOTLOOP}" --proposals 20000 --reps 1
                        --gate-pct 1000
                WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE status)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "hotloop: exit ${status}, want 0\n${err}")
endif()
string(FIND "${out}" "no json report written" said)
if(said EQUAL -1)
  message(FATAL_ERROR "hotloop did not say that no report was written:\n${out}")
endif()
file(GLOB left "${WORKDIR}/*")
if(NOT left STREQUAL "")
  message(FATAL_ERROR "hotloop wrote into its working directory: ${left}")
endif()
