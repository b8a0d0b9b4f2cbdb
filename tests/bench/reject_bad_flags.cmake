# Runs every bench driver, mcopt_cli and the two examples that take
# positional numbers with one bad argument each, and requires a usage
# error: exit status 2 (not an abort, a hang or a success), an error naming
# the flag, variable or positional argument, and an empty stdout, so the
# rejection comes before the header and any timed work:
#
#   cmake -DBENCH_DIR=<dir> -DCLI=<mcopt_cli> -DQUICKSTART=<exe> \
#         -DTSP_TOUR=<exe> -DWORKDIR=<dir> -P reject_bad_flags.cmake
#
# A case is `exe|name|value[|words]`.  A name starting with `--` is passed
# as a flag after the words (a subcommand and its other flags), bare when
# the value is empty; an upper-case name is set in the environment; any
# other name labels a positional argument, passed as the value.  Each run
# has a timeout, so a value that turns into an endless budget fails
# instead of stalling.
cmake_policy(SET CMP0007 NEW)  # keep the empty value of a bare-flag case
set(timeout 30)
file(MAKE_DIRECTORY "${WORKDIR}")
set(netlist "${WORKDIR}/tiny.mcnl")
execute_process(COMMAND "${CLI}" gen --cells 8 --nets 20 --out "${netlist}"
                OUTPUT_QUIET
                RESULT_VARIABLE status
                TIMEOUT ${timeout})
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "mcopt_cli gen --out ${netlist}: exit ${status}")
endif()

# Class id 22 (threshold accepting) is a valid --method.
execute_process(COMMAND "${CLI}" solve --in "${netlist}" --method 22
                        --budget 200
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE status
                TIMEOUT ${timeout})
if(NOT status STREQUAL "0" OR NOT out MATCHES "Threshold Accepting")
  message(FATAL_ERROR "mcopt_cli solve --method 22: exit ${status}\n${out}${err}")
endif()

set(cases
    "${BENCH_DIR}/hotloop|--proposals|x"
    "${BENCH_DIR}/hotloop|--gate-pct|abc"
    "${BENCH_DIR}/hotloop|--proposals|99999999999999999999"
    "${BENCH_DIR}/tables|MCOPT_BENCH_SCALE|abc"
    "${BENCH_DIR}/tables|MCOPT_BENCH_SCALE|0.5x"
    "${BENCH_DIR}/tables|MCOPT_BENCH_SCALE|nan"
    "${BENCH_DIR}/tables|MCOPT_BENCH_SCALE|1e999"
    "${BENCH_DIR}/tables|MCOPT_BENCH_SCALE|0.001"
    "${BENCH_DIR}/tables|MCOPT_BENCH_SCALE|1e300"
    "${CLI}|--cells|-1|gen"
    "${CLI}|--budget|-5|solve --in ${netlist}"
    "${CLI}|--tolerance|-1|partition --cells 3 --nets 2"
    "${CLI}|--n|-3|tsp"
    "${CLI}|--scale|inf|solve --in ${netlist} --method metropolis"
    "${CLI}|--sed|3|tsp"
    "${TSP_TOUR}|n|-3"
    "${QUICKSTART}|seed|abc"
    "${CLI}|--start|bogus|solve --in ${netlist}"
    "${CLI}|--moves|bogus|solve --in ${netlist}"
    "${CLI}|--strategy|bogus|solve --in ${netlist}"
    # The hardware-counter flag is gone: bare, it is an unknown flag.
    "${BENCH_DIR}/tables|--perf-counters|"
    "${BENCH_DIR}/hotloop|--perf-counters|"
    # So is the timeline flag: the timeline is rendered from --profile-out.
    "${BENCH_DIR}/tables|--timeline-out|timeline.json"
    # The flags of the benches folded into hotloop are unknown flags there.
    "${BENCH_DIR}/hotloop|--budget|5"
    "${BENCH_DIR}/hotloop|--max-threads|4"
    # --table names one table or all: a bare flag, an unknown table and a
    # list are usage errors.
    "${BENCH_DIR}/tables|--table|4.3"
    "${BENCH_DIR}/tables|--table|"
    "${BENCH_DIR}/tables|--table|4.1,4.2a")

# Cell and net counts past the netlist's 32-bit ids (2^64 - 1 segfaulted
# in gen).  Only values rejected before anything is allocated are run
# here; a count just under the limit would be a real, huge allocation.
foreach(words IN ITEMS gen partition)
  foreach(flag --cells --nets)
    foreach(value 4294967296 18446744073709551615)
      list(APPEND cases "${CLI}|${flag}|${value}|${words}")
    endforeach()
  endforeach()
endforeach()

# Every numeric flag of mcopt_cli, at -1 and at 2^64.
foreach(command_flags IN ITEMS
        "gen|--cells --nets --min-pins --max-pins --seed"
        "solve --in ${netlist}|--budget --seed --scale --method"
        "partition|--cells --nets --budget --seed --tolerance"
        "tsp|--n --budget --seed")
  string(REPLACE "|" ";" parts "${command_flags}")
  list(GET parts 0 words)
  list(GET parts 1 flags)
  separate_arguments(flags UNIX_COMMAND "${flags}")
  foreach(flag IN LISTS flags)
    foreach(value -1 18446744073709551616)
      list(APPEND cases "${CLI}|${flag}|${value}|${words}")
    endforeach()
  endforeach()
endforeach()

# Every bench driver but Google Benchmark's micro, with an unknown flag.
file(GLOB drivers LIST_DIRECTORIES false "${BENCH_DIR}/*")
list(FILTER drivers EXCLUDE REGEX "/micro(\\.exe)?$")
if(NOT drivers)
  message(FATAL_ERROR "no bench drivers found in ${BENCH_DIR}")
endif()
foreach(driver IN LISTS drivers)
  list(APPEND cases "${driver}|--no-such-flag|1")
endforeach()

foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 exe)
  list(GET parts 1 name)
  list(GET parts 2 value)
  set(words "")
  list(LENGTH parts length)
  if(length GREATER 3)
    list(GET parts 3 words)
    separate_arguments(words UNIX_COMMAND "${words}")
  endif()
  if(name MATCHES "^--")
    set(command "${exe}" ${words} ${name} ${value})
  elseif(name MATCHES "^[A-Z_]+$")
    set(command ${CMAKE_COMMAND} -E env ${name}=${value} "${exe}")
  else()
    set(command "${exe}" ${words} ${value})
  endif()
  execute_process(COMMAND ${command}
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  RESULT_VARIABLE status
                  TIMEOUT ${timeout})
  set(what "${exe} ${words} ${name} ${value}")
  if(NOT status STREQUAL "2")
    message(FATAL_ERROR "${what}: exit ${status}, want 2\n${err}")
  endif()
  string(FIND "${err}" "${name}" named)
  if(named EQUAL -1)
    message(FATAL_ERROR "${what}: error does not name ${name}:\n${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${what}: printed before rejecting:\n${out}")
  endif()
endforeach()
