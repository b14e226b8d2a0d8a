# Schedule-invariance check for one runner-backed harness
# (bench/CMakeLists.txt registers it):
#   cmake -DHARNESS=<harness binary> [-DCONFIGS=<j:t,...>] [-DSPAN=<name>]
#         -P jobs_invariance.cmake
# Runs the harness with the caller's environment once per
# PERFORMA_JOBS:PERFORMA_THREADS pair in CONFIGS (default 1:1,4:1,1:2:
# points in flight, then the pool width inside a point). Fails unless
# every run exits 0, none prints a "# degraded" line, and all print the
# same bytes once "# kernel:" lines (pool-width provenance) are dropped.
# With SPAN set, each run also writes a PERFORMA_TRACE, and every run's
# trace must hold the same number of SPAN records: spans recorded on the
# pool threads of a forked worker reach the trace too.
if(NOT HARNESS)
  message(FATAL_ERROR "jobs_invariance.cmake: pass -DHARNESS=<binary>")
endif()
if(NOT CONFIGS)
  set(CONFIGS "1:1,4:1,1:2")
endif()
string(REPLACE "," ";" CONFIGS "${CONFIGS}")
get_filename_component(name "${HARNESS}" NAME)

set(reference "")
foreach(config ${CONFIGS})
  string(REPLACE ":" ";" pair "${config}")
  list(GET pair 0 jobs)
  list(GET pair 1 threads)
  set(run "PERFORMA_JOBS=${jobs} PERFORMA_THREADS=${threads}")
  set(ENV{PERFORMA_JOBS} ${jobs})
  set(ENV{PERFORMA_THREADS} ${threads})
  if(SPAN)
    set(trace "${CMAKE_CURRENT_BINARY_DIR}/${name}-j${jobs}-t${threads}.trace")
    file(REMOVE "${trace}")
    set(ENV{PERFORMA_TRACE} "${trace}")
  endif()
  execute_process(COMMAND "${HARNESS}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${HARNESS} (${run}) exited ${rc}\n${err}")
  endif()
  if(out MATCHES "(^|\n)# degraded")
    message(FATAL_ERROR "${HARNESS} (${run}) reported a degraded point:\n"
                        "${out}")
  endif()
  string(REGEX REPLACE "(^|\n)# kernel:[^\n]*\n" "\\1" out "${out}")
  if(SPAN)
    file(STRINGS "${trace}" records REGEX "\"name\":\"${SPAN}\"")
    list(LENGTH records spans)
    file(REMOVE "${trace}")
    if(spans EQUAL 0)
      message(FATAL_ERROR "${HARNESS} (${run}) traced no ${SPAN} span")
    endif()
  endif()
  if(reference STREQUAL "")
    set(reference "${run}")
    set(reference_out "${out}")
    set(reference_spans "${spans}")
    continue()
  endif()
  if(NOT out STREQUAL reference_out)
    message(FATAL_ERROR "${HARNESS} output depends on the schedule:\n"
                        "--- ${reference}\n${reference_out}\n"
                        "--- ${run}\n${out}")
  endif()
  if(SPAN AND NOT spans EQUAL reference_spans)
    message(FATAL_ERROR "${HARNESS}: ${reference_spans} ${SPAN} spans at "
                        "${reference}, ${spans} at ${run}")
  endif()
endforeach()
