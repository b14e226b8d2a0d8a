# Exit-path check for one CLI invocation (examples/CMakeLists.txt
# registers it):
#   cmake -DCMD=<binary;args...> -DEXIT=<code> -DEXPECT=<regex>
#         -P expect_exit.cmake
# Fails unless the command exits with EXIT and its stderr matches EXPECT.
if(NOT CMD OR NOT DEFINED EXIT OR NOT EXPECT)
  message(FATAL_ERROR
          "expect_exit.cmake: pass -DCMD=... -DEXIT=... -DEXPECT=...")
endif()

execute_process(COMMAND ${CMD}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR "exited ${rc}, expected ${EXIT}\n${out}\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
