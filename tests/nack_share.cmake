# Runs one flowercdn-sim trial (through run_cli.cmake) and fails when its
# transport NACKs (sends to peers that have already died) exceed
# MAX_PERCENT percent of its Chord messages: the signature of ring
# maintenance re-probing crashed peers.
#
#   cmake -DJSON_OUT=file -DMAX_PERCENT=4 -P nack_share.cmake --
#         flowercdn-sim args... --json-out=file
set(EXPECT_EXIT 0)
include(${CMAKE_CURRENT_LIST_DIR}/run_cli.cmake)
file(READ "${JSON_OUT}" doc)
string(JSON families GET "${doc}" cells 0 trial_results 0 overhead families)
string(JSON nacks GET "${families}" nack messages)
string(JSON chord GET "${families}" chord messages)
math(EXPR nacks_x100 "${nacks} * 100")
math(EXPR limit_x100 "${chord} * ${MAX_PERCENT}")
if(nacks_x100 GREATER limit_x100)
  message(FATAL_ERROR
          "${nacks} NACKs exceed ${MAX_PERCENT}% of ${chord} Chord messages")
endif()
