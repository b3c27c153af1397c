# Runs one command-line program and checks how it ends, for CTest cases
# that drive a tool from the outside:
#
#   cmake -DEXPECT_EXIT=2 [-DEXPECT_MATCH=regex] [-DEXPECT_STDOUT=file]
#         -P run_cli.cmake -- program args...
#
# EXPECT_EXIT is the required exit status; EXPECT_MATCH must match the
# program's standard output; EXPECT_STDOUT names a file whose contents
# the standard output must equal byte for byte.
set(command)
set(in_command OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_command)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_command ON)
  endif()
endforeach()

execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR
          "exit status ${status}, want ${EXPECT_EXIT}\nstderr: ${err}")
endif()
if(DEFINED EXPECT_MATCH AND NOT out MATCHES "${EXPECT_MATCH}")
  message(FATAL_ERROR "stdout does not match '${EXPECT_MATCH}':\n${out}")
endif()
if(DEFINED EXPECT_STDOUT)
  file(READ "${EXPECT_STDOUT}" want)
  if(NOT out STREQUAL want)
    message(FATAL_ERROR
            "stdout differs from ${EXPECT_STDOUT}; got:\n${out}")
  endif()
endif()
