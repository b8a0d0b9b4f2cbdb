# The C++ -> Python export contract.  Runs table_4_1 with a sampled JSONL
# trace and the metrics exports on, then requires tools/trace_report.py to
# accept the trace (--validate) and the Prometheus text (--prom), and to
# reject copies with one planted unknown event kind and one planted unknown
# mcopt_ family.  Both sides read their vocabulary from src/obs/schema.def,
# so this fails when either stops doing so.  The trace must also match a
# pinned SHA-256:
#
#   cmake -DDRIVER=<table_4_1> -DPYTHON=<python3> -DREPORT=<trace_report.py>
#         -DWORKDIR=<dir> -P export_contract.cmake
set(ENV{MCOPT_BENCH_SCALE} 0.05)
unset(ENV{MCOPT_BENCH_CSV_DIR})
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(trace "${WORKDIR}/trace.jsonl")
set(prom "${WORKDIR}/prom.txt")
execute_process(COMMAND "${DRIVER}" --quiet --trace "${trace}"
                        --trace-sample 16 --metrics-out "${WORKDIR}/m.json"
                        --prom-out "${prom}"
                OUTPUT_QUIET
                ERROR_VARIABLE err
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${DRIVER} exited with ${status}:\n${err}")
endif()

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

# Runs trace_report.py with `args` and requires exit status `want`.
function(expect_report want)
  execute_process(COMMAND "${PYTHON}" "${REPORT}" ${ARGN}
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  RESULT_VARIABLE status)
  if(NOT status STREQUAL "${want}")
    list(JOIN ARGN " " args)
    message(FATAL_ERROR
      "trace_report.py ${args}: exit ${status}, want ${want}\n${out}${err}")
  endif()
endfunction()

expect_report(0 "${trace}" --validate)
expect_report(0 --prom "${prom}")

file(READ "${trace}" text)
file(WRITE "${WORKDIR}/planted.jsonl" "${text}"
     "{\"event\":\"planted_kind\",\"run\":0,\"restart\":0,\"worker\":0,"
     "\"tick\":0,\"stage\":0,\"cost\":0,\"best\":0}\n")
expect_report(1 "${WORKDIR}/planted.jsonl" --validate)

file(READ "${prom}" text)
file(WRITE "${WORKDIR}/planted.txt" "${text}"
     "# HELP mcopt_planted_total A family no schema declares\n"
     "# TYPE mcopt_planted_total counter\n"
     "mcopt_planted_total 1\n")
expect_report(1 --prom "${WORKDIR}/planted.txt")
