# Fails unless COMMAND_A and COMMAND_B both exit with status 0 and print
# the same stdout: two spellings of one request must give one answer. Run
# as:
#   cmake "-DCOMMAND_A=<program> <args...>" "-DCOMMAND_B=<program> <args...>"
#         -P expect_same_output.cmake
foreach(side A B)
  separate_arguments(argv UNIX_COMMAND "${COMMAND_${side}}")
  execute_process(COMMAND ${argv} RESULT_VARIABLE status
                  OUTPUT_VARIABLE out_${side} ERROR_VARIABLE err)
  if(NOT status STREQUAL "0")
    message(FATAL_ERROR "${COMMAND_${side}}: exit status '${status}':\n${err}")
  endif()
endforeach()
if(NOT out_A STREQUAL out_B)
  message(FATAL_ERROR "outputs differ:\n${COMMAND_A}:\n${out_A}\n"
                      "${COMMAND_B}:\n${out_B}")
endif()
