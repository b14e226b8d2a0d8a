# Jobs-invariance check for one runner-backed harness (bench/CMakeLists.txt
# registers it):
#   cmake -DHARNESS=<harness binary> -P jobs_invariance.cmake
# Runs the harness with the caller's environment at PERFORMA_JOBS=1 and
# again at PERFORMA_JOBS=4. Fails unless both exit 0, neither prints a
# "# degraded" line, and both print the same bytes once "# kernel:" lines
# (pool-width provenance) are dropped.
if(NOT HARNESS)
  message(FATAL_ERROR "jobs_invariance.cmake: pass -DHARNESS=<binary>")
endif()

foreach(jobs 1 4)
  set(ENV{PERFORMA_JOBS} ${jobs})
  execute_process(COMMAND "${HARNESS}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR
            "${HARNESS} (PERFORMA_JOBS=${jobs}) exited ${rc}\n${err}")
  endif()
  if(out MATCHES "(^|\n)# degraded")
    message(FATAL_ERROR "${HARNESS} (PERFORMA_JOBS=${jobs}) reported a "
                        "degraded point:\n${out}")
  endif()
  string(REGEX REPLACE "(^|\n)# kernel:[^\n]*\n" "\\1" out_${jobs} "${out}")
endforeach()

if(NOT out_1 STREQUAL out_4)
  message(FATAL_ERROR "${HARNESS} output depends on PERFORMA_JOBS:\n"
                      "--- PERFORMA_JOBS=1\n${out_1}\n"
                      "--- PERFORMA_JOBS=4\n${out_4}")
endif()
