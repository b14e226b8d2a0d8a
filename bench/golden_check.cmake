# Golden check for one figure harness (bench/CMakeLists.txt registers it):
#   cmake -DHARNESS=<harness binary> -DGOLDEN=<committed CSV> -P golden_check.cmake
# Runs the harness with the caller's environment and fails unless it exits
# 0 and its output equals the golden file once "# kernel:" lines are
# dropped. That line records the linalg pool width, which differs from host
# to host while every number stays bit-identical.
if(NOT HARNESS OR NOT GOLDEN)
  message(FATAL_ERROR
          "golden_check.cmake: pass -DHARNESS=<binary> -DGOLDEN=<csv>")
endif()

execute_process(COMMAND "${HARNESS}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${HARNESS} exited ${rc}\n${err}")
endif()

string(REGEX REPLACE "(^|\n)# kernel:[^\n]*\n" "\\1" out "${out}")
file(READ "${GOLDEN}" golden)
if(NOT out STREQUAL golden)
  message(FATAL_ERROR "${HARNESS} output differs from ${GOLDEN}:\n${out}")
endif()
