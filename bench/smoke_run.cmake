# Smoke check for one figure harness (bench/CMakeLists.txt registers one
# CTest per harness):
#   cmake -DHARNESS=<path to harness binary> -P smoke_run.cmake
# Runs the harness with the caller's environment and fails unless it exits
# 0, prints at least one CSV row that starts with a number, and prints no
# "# degraded" line (a sweep point that failed after its retries).
if(NOT HARNESS)
  message(FATAL_ERROR "smoke_run.cmake: pass -DHARNESS=<binary>")
endif()

execute_process(COMMAND "${HARNESS}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)

if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${HARNESS} exited ${rc}\n${err}")
endif()
if(NOT out MATCHES "(^|\n)-?[0-9][^\n]*,")
  message(FATAL_ERROR "${HARNESS} printed no numeric CSV row:\n${out}")
endif()
if(out MATCHES "(^|\n)# degraded")
  message(FATAL_ERROR "${HARNESS} reported a degraded point:\n${out}")
endif()
