# Checks files against recorded SHA-256 digests and fails naming each file
# that is missing or differs.
#
#   cmake -DDIR=<dir> -DEXPECTED=a.csv=<sha256>,b.csv=<sha256> -P check_sha256.cmake
string(REPLACE "," ";" pairs "${EXPECTED}")
set(failures "")
foreach(pair IN LISTS pairs)
  string(REPLACE "=" ";" parts "${pair}")
  list(GET parts 0 name)
  list(GET parts 1 want)
  if(NOT EXISTS "${DIR}/${name}")
    string(APPEND failures "\n  ${name}: missing")
    continue()
  endif()
  file(SHA256 "${DIR}/${name}" got)
  if(NOT got STREQUAL want)
    string(APPEND failures "\n  ${name}: ${got}, expected ${want}")
  endif()
endforeach()
if(failures)
  message(FATAL_ERROR "${DIR}: bytes differ from the recorded digests:${failures}")
endif()
