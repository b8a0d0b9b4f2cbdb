# Traces are thread-count invariant: Table 4.1 traced at one thread and at
# four must be the same event stream once worker stamps and steal events
# are dropped, so `mcopt_report.py diff` must exit 0 on the pair.  It must
# exit 1 once one event's cost is changed in a copy of the four-thread
# trace, or the diff proves nothing.  The four-thread leg also arms the
# flight recorder, so its events pass through the JSONL + ring tee; a
# clean exit must leave no flight dump.  Under ThreadSanitizer this is the
# test that drives run_method_row's per-job shards.
#
#   cmake -DDRIVER=<tables> -DPYTHON=<python3> -DREPORT=<mcopt_report.py>
#         -DWORKDIR=<dir> -P trace_diff.cmake
set(ENV{MCOPT_BENCH_SCALE} 0.05)
unset(ENV{MCOPT_BENCH_CSV_DIR})
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
foreach(threads 1 4)
  set(flight "")
  if(threads EQUAL 4)
    set(flight --flight-recorder --flight-out "${WORKDIR}/flight.jsonl")
  endif()
  execute_process(COMMAND "${DRIVER}" --table 4.1 --threads ${threads}
                          --quiet --trace "${WORKDIR}/t${threads}.jsonl"
                          --trace-sample 16 ${flight}
                  OUTPUT_QUIET
                  ERROR_VARIABLE err
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${DRIVER} --threads ${threads} exited with "
                        "${status}:\n${err}")
  endif()
endforeach()
if(EXISTS "${WORKDIR}/flight.jsonl")
  message(FATAL_ERROR "a clean --flight-recorder run wrote a flight dump")
endif()

# Runs `mcopt_report.py diff` on t1.jsonl and `other`; requires `want`.
function(expect_diff want other)
  execute_process(COMMAND "${PYTHON}" "${REPORT}" diff
                          "${WORKDIR}/t1.jsonl" "${WORKDIR}/${other}"
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  RESULT_VARIABLE status)
  if(NOT status STREQUAL "${want}")
    message(FATAL_ERROR "diff t1.jsonl ${other}: exit ${status}, want "
                        "${want}\n${out}${err}")
  endif()
endfunction()

expect_diff(0 t4.jsonl)

# Prefixing a digit to the first cost changes one deterministic field.
file(READ "${WORKDIR}/t4.jsonl" text)
string(FIND "${text}" "\"cost\":" at)
if(at EQUAL -1)
  message(FATAL_ERROR "t4.jsonl carries no cost field")
endif()
math(EXPR at "${at} + 7")
string(SUBSTRING "${text}" 0 ${at} head)
string(SUBSTRING "${text}" ${at} -1 tail)
file(WRITE "${WORKDIR}/tampered.jsonl" "${head}1${tail}")
expect_diff(1 tampered.jsonl)
