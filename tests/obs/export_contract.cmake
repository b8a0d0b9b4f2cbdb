# The C++ -> Python export contract.  Runs Table 4.1 with a sampled JSONL
# trace and the run report on, renders the report as Prometheus text with
# `tools/mcopt_report.py prom`, then requires `mcopt_report.py validate` to
# accept the trace and the Prometheus text, and to reject copies with one
# planted unknown event kind and one planted unknown mcopt_ family.  Both
# sides read their vocabulary from src/obs/schema.def, so this fails when
# either stops doing so.  The trace and the deterministic part of the report
# and of its Prometheus text must also match pinned SHA-256 digests:
#
#   cmake -DDRIVER=<tables> -DDRIVER_ARGS=--table;4.1 -DPYTHON=<python3>
#         -DREPORT=<mcopt_report.py> -DWORKDIR=<dir> -P export_contract.cmake
set(ENV{MCOPT_BENCH_SCALE} 0.05)
unset(ENV{MCOPT_BENCH_CSV_DIR})
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(trace "${WORKDIR}/trace.jsonl")
set(report "${WORKDIR}/report.json")
set(prom "${WORKDIR}/prom.txt")
execute_process(COMMAND "${DRIVER}" ${DRIVER_ARGS} --quiet
                        --trace "${trace}" --trace-sample 16
                        --report-out "${report}"
                OUTPUT_QUIET
                ERROR_VARIABLE err
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${DRIVER} exited with ${status}:\n${err}")
endif()

# Runs mcopt_report.py with `args` and requires exit status `want`.
function(expect_report want)
  execute_process(COMMAND "${PYTHON}" "${REPORT}" ${ARGN}
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  RESULT_VARIABLE status)
  if(NOT status STREQUAL "${want}")
    list(JOIN ARGN " " args)
    message(FATAL_ERROR
      "mcopt_report.py ${args}: exit ${status}, want ${want}\n${out}${err}")
  endif()
endfunction()

expect_report(0 prom "${report}" -o "${prom}")

# The trace bytes are pinned: the JSONL encoder may change how it writes a
# line, never what it writes.  Re-pin only for a deliberate format change.
set(want_sha256
    2244de268fd89e5621210c7493a954893bce294bd1bc8c83d254185442fee78a)
file(SHA256 "${trace}" sha256)
if(NOT sha256 STREQUAL want_sha256)
  file(STRINGS "${trace}" lines)
  list(LENGTH lines count)
  message(FATAL_ERROR "trace SHA-256 ${sha256} (${count} lines), want "
                      "${want_sha256} (23070 lines)")
endif()

# The deterministic part of the report and of its Prometheus text is pinned
# as well, so a change to how the recorder feeds its counters and
# observables cannot shift a number unnoticed (the determinism tests only
# compare the code with itself).  Dropped first: from the report every
# wall-clock field (the profiles' wall_ns included), the scheduler's steal
# count and the invariant-check count (nonzero only in invariant-checking
# builds); from the Prometheus text every family that schema.def marks
# nondeterministic, and the invariant-check family.
# A mismatch leaves the masked text beside the export for a diff.
function(expect_masked_sha256 label masked want)
  string(SHA256 got "${masked}")
  if(NOT got STREQUAL want)
    file(WRITE "${WORKDIR}/${label}.masked" "${masked}")
    message(FATAL_ERROR "${label}: masked SHA-256 ${got}, want ${want} "
                        "(masked text in ${WORKDIR}/${label}.masked)")
  endif()
endfunction()

file(READ "${report}" json)
string(REGEX REPLACE
       "\n[^\n]*\"([a-z_]*_seconds|worker_steals|invariant_checks)\"[^\n]*"
       "" json "${json}")
string(REGEX REPLACE ", \"wall_ns\": [0-9]+" "" json "${json}")
expect_masked_sha256(metrics_json "${json}"
    f18e3d08a0ee81f5c0cc9ceb75d1e1212ca29a6402b1c69e233fcc4edb5393dd)

file(READ "${CMAKE_CURRENT_LIST_DIR}/../../src/obs/schema.def" schema)
set(head "MCOPT_(COUNTER|GAUGE|HISTOGRAM)\\(k[A-Za-z0-9]+,")
string(REGEX MATCHALL "${head}[ \n]*\"mcopt_[a-z0-9_]+\",[ \n]*false"
       nondeterministic "${schema}")
set(families mcopt_invariant_checks_total)
foreach(entry IN LISTS nondeterministic)
  string(REGEX MATCH "\"(mcopt_[a-z0-9_]+)\"" family "${entry}")
  list(APPEND families "${CMAKE_MATCH_1}")
endforeach()
list(JOIN families "|" alternation)
file(READ "${prom}" text)
string(REGEX REPLACE
       "\n(# (HELP|TYPE) )?(${alternation})(_bucket|_count|_sum)?[{ ][^\n]*"
       "" text "\n${text}")
expect_masked_sha256(prom "${text}"
    25a2d1daf9af2edb3216fd0f46332a8cef74ce9d850937a9b4fca40173f2f8be)

expect_report(0 validate "${trace}")
expect_report(0 validate "${prom}")

file(READ "${trace}" text)
file(WRITE "${WORKDIR}/planted.jsonl" "${text}"
     "{\"event\":\"planted_kind\",\"run\":0,\"restart\":0,\"worker\":0,"
     "\"tick\":0,\"stage\":0,\"cost\":0,\"best\":0}\n")
expect_report(1 validate "${WORKDIR}/planted.jsonl")

file(READ "${prom}" text)
file(WRITE "${WORKDIR}/planted.txt" "${text}"
     "# HELP mcopt_planted_total A family no schema declares\n"
     "# TYPE mcopt_planted_total counter\n"
     "mcopt_planted_total 1\n")
expect_report(1 validate "${WORKDIR}/planted.txt")
