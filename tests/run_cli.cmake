# Runs one command-line program and checks how it ends, for CTest cases
# that drive a tool from the outside:
#
#   cmake -DEXPECT_EXIT=2 [-DEXPECT_MATCH=regex] [-DEXPECT_NO_MATCH=regex]
#         [-DEXPECT_STDOUT=file]
#         [-DOUTPUT_FILE=file -DEXPECT_OUTPUT_FILE=file]
#         -P run_cli.cmake -- program args...
#
# EXPECT_EXIT is the required exit status; EXPECT_MATCH must match the
# program's standard output and EXPECT_NO_MATCH must not; EXPECT_STDOUT
# names a file whose contents
# the standard output must equal byte for byte. OUTPUT_FILE names a file
# the program writes (removed before the run); its contents must equal
# EXPECT_OUTPUT_FILE's byte for byte.
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

if(DEFINED OUTPUT_FILE)
  file(REMOVE "${OUTPUT_FILE}")
endif()
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
if(DEFINED EXPECT_NO_MATCH AND out MATCHES "${EXPECT_NO_MATCH}")
  message(FATAL_ERROR "stdout matches '${EXPECT_NO_MATCH}':\n${out}")
endif()
if(DEFINED EXPECT_STDOUT)
  file(READ "${EXPECT_STDOUT}" want)
  if(NOT out STREQUAL want)
    message(FATAL_ERROR
            "stdout differs from ${EXPECT_STDOUT}; got:\n${out}")
  endif()
endif()
if(DEFINED OUTPUT_FILE)
  file(READ "${OUTPUT_FILE}" got)
  file(READ "${EXPECT_OUTPUT_FILE}" want)
  if(NOT got STREQUAL want)
    message(FATAL_ERROR
            "${OUTPUT_FILE} differs from ${EXPECT_OUTPUT_FILE}")
  endif()
endif()
