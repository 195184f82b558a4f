# Exit-code contract of the prairie_opt driver, run as a CTest script:
#
#   cmake -DPRAIRIE_OPT=<path-to-prairie_opt> -P cli_exit_codes.cmake
#
# Checks: --help exits 0 and documents the flag surface; unknown flags
# are named on stderr and exit 2 (the usage error code); invalid flag
# values exit 2; every value flag also takes --flag=VALUE; a repeated
# query is served from the plan cache; a flag the run mode ignores is
# named on stderr, has no effect, and still exits 0.

if(NOT DEFINED PRAIRIE_OPT)
  message(FATAL_ERROR "pass -DPRAIRIE_OPT=<path to prairie_opt>")
endif()

function(check_run expected_code)
  execute_process(
    COMMAND ${PRAIRIE_OPT} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expected_code})
    message(FATAL_ERROR
      "prairie_opt ${ARGN}: expected exit ${expected_code}, got '${rc}'\n"
      "stdout: ${out}\nstderr: ${err}")
  endif()
  set(last_out "${out}" PARENT_SCOPE)
  set(last_err "${err}" PARENT_SCOPE)
endfunction()

# --version succeeds and names the binary (and the compiler that built
# it, so a bug report can name the exact build).
check_run(0 --version)
string(FIND "${last_out}" "prairie_opt" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR
    "--version output does not mention prairie_opt; stdout: ${last_out}")
endif()

# --help succeeds, documents the cache/traffic/execution surface, and
# lists exactly 24 flags, one per line.
check_run(0 --help)
foreach(flag "--plan-cache" "--param-cache" "--traffic" "--repeat"
        "--execute" "--analyze" "--version")
  string(FIND "${last_out}" "${flag}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "--help output does not mention ${flag}")
  endif()
endforeach()
string(REGEX MATCHALL "(^|\n)  --" flag_lines "${last_out}")
list(LENGTH flag_lines n_flags)
if(NOT n_flags EQUAL 24)
  message(FATAL_ERROR
    "--help lists ${n_flags} flags, expected 24:\n${last_out}")
endif()

# An unknown flag is named on stderr and exits with the usage code.
check_run(2 --bogus)
string(FIND "${last_err}" "unknown flag '--bogus'" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR
    "unknown-flag error does not name the flag; stderr: ${last_err}")
endif()

# Flags that are not part of the surface are unknown: --search-jobs (each
# search runs on one thread) and the retired serving-diagnostics flags.
foreach(flag "--search-jobs" "--timeseries" "--slow-ms" "--slow-p99"
        "--qerror-limit" "--slow-log" "--diag-dir" "--diag-detail")
  check_run(2 --query 1 ${flag} 4)
  string(FIND "${last_err}" "unknown flag '${flag}'" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
      "${flag} error does not name the flag; stderr: ${last_err}")
  endif()
endforeach()

# Invalid flag values exit with the usage code too.
check_run(2 --query 9)
check_run(2 --joins 0)
check_run(2 --repeat 0)
check_run(2 --plan-cache=0)
check_run(2 --param-cache=0)
check_run(2 --traffic -3)
check_run(2 --trace)  # flag that requires a value, given none
check_run(2 --analyze=)  # =FILE form with an empty value
check_run(2 --batch 0)  # a batch holds at least one query
# Numeric values are parsed whole and range-checked: no negative counts,
# no wrap-around to SIZE_MAX, no silently-zero non-numbers.
check_run(2 --jobs -2 --batch 2)
check_run(2 --query 1 --max-groups -1)
check_run(2 --query 1 --search-budget-ms -5)
check_run(2 --query 1 --seed x)
# --flag=VALUE is parsed like --flag VALUE; a switch takes no value.
check_run(2 --query=9)
check_run(2 --no-prune=1)
check_run(0 --query=3 --joins=2)

function(expect_mentions text)
  foreach(needle ${ARGN})
    string(FIND "${text}" "${needle}" pos)
    if(pos EQUAL -1)
      message(FATAL_ERROR "expected '${needle}' in: ${text}")
    endif()
  endforeach()
endfunction()

# A repeated query is served from the plan cache in either mode. Q1 has no
# constants to strip and Q5 has three, so under --param-cache Q5's final
# round is served by rebinding its skeleton entry.
foreach(args "--query;1;--plan-cache" "--query;5;--plan-cache"
        "--query;5;--param-cache")
  check_run(0 ${args} --repeat 2)
  expect_mentions("${last_out}" "plan served from the cache")
endforeach()
expect_mentions("${last_out}" "1 rebound hits")

set(out_dir "${CMAKE_CURRENT_BINARY_DIR}/cli_exit_codes.out")
file(REMOVE_RECURSE "${out_dir}")
file(MAKE_DIRECTORY "${out_dir}")

# Traffic honours --trace and --profile-rules: the per-worker streams are
# merged into one Chrome trace.
check_run(0 --traffic 20 --param-cache --jobs 2
          --trace ${out_dir}/traffic.json --profile-rules)
expect_mentions("${last_out}" "rule profile")
file(READ "${out_dir}/traffic.json" trace_json)
string(JSON n_events ERROR_VARIABLE json_err
       LENGTH "${trace_json}" traceEvents)
if(json_err OR n_events EQUAL 0)
  message(FATAL_ERROR "traffic trace has no traceEvents: ${json_err}")
endif()

# Flags the run mode ignores are named on stderr and write nothing.
check_run(0 --traffic 20 --explain --dump-memo ${out_dir}/memo.dot)
expect_mentions("${last_err}" "--explain" "--dump-memo")
if(EXISTS "${out_dir}/memo.dot")
  message(FATAL_ERROR "an ignored flag wrote ${out_dir}/memo.dot")
endif()
check_run(0 --batch 2 --expand-only)
expect_mentions("${last_err}" "--expand-only")

# --batch K optimizes exactly K queries, K = 1 included.
check_run(0 --batch 1 --jobs 1)
expect_mentions("${last_out}" "batch: 1 queries on 1 worker(s)")

# --execute on a plan whose winning algorithm has no registered executor
# must fail with the usage code and name the algorithm on stderr — not
# crash. The fixture spec renames File_scan to Seq_scan, so Q1 (E1: no
# indexes, sequential scans are forced) deterministically hits it.
if(DEFINED PRAIRIE_SPEC_DIR)
  check_run(2 --spec ${PRAIRIE_SPEC_DIR}/relational_noexec.prairie
            --query 1 --execute)
  string(FIND "${last_err}" "no executor registered for algorithm 'Seq_scan'"
         pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
      "--execute without an executor does not name the algorithm; "
      "stderr: ${last_err}")
  endif()
endif()

message(STATUS "prairie_opt exit codes OK")
