# Fails unless COMMAND exits with status 2 and its stdout or stderr matches
# REGEX: the "print usage and exit 2" contract of the command-line front
# ends. Run as:
#   cmake "-DCOMMAND=<program> <args...>" "-DREGEX=<regex>"
#         -P expect_usage_exit.cmake
separate_arguments(argv UNIX_COMMAND "${COMMAND}")
execute_process(COMMAND ${argv} RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${status}':\n${out}")
endif()
if(NOT out MATCHES "${REGEX}")
  message(FATAL_ERROR "output does not match '${REGEX}':\n${out}")
endif()
