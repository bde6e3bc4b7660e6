# Fails unless COMMAND exits with status 2, writes nothing to stdout, and
# its stderr matches REGEX: the "print usage and exit 2" contract of the
# command-line front ends, which reject an argument before printing any
# result (a CSV header included). Run as:
#   cmake "-DCOMMAND=<program> <args...>" "-DREGEX=<regex>"
#         -P expect_usage_exit.cmake
separate_arguments(argv UNIX_COMMAND "${COMMAND}")
execute_process(COMMAND ${argv} RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${status}':\n${out}${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "expected an empty stdout, got:\n${out}")
endif()
if(NOT err MATCHES "${REGEX}")
  message(FATAL_ERROR "stderr does not match '${REGEX}':\n${err}")
endif()
