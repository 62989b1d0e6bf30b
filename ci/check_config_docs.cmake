# Doc-drift check: every `FleetConfig::<field>` that DESIGN.md or
# docs/*.md names must be declared in src/fleet/fleet.h.
#
# Usage: cmake -DROOT=<repo root> -P ci/check_config_docs.cmake
#
# Brace lists such as `FleetConfig::{shards,queue_shards}` count each
# member. Fails with one line per unknown name.

cmake_minimum_required(VERSION 3.16)

if(NOT ROOT)
  message(FATAL_ERROR "usage: cmake -DROOT=<repo root> -P check_config_docs.cmake")
endif()

file(READ "${ROOT}/src/fleet/fleet.h" header)
string(FIND "${header}" "struct FleetConfig {" begin)
if(begin EQUAL -1)
  message(FATAL_ERROR "src/fleet/fleet.h declares no struct FleetConfig")
endif()
string(SUBSTRING "${header}" ${begin} -1 body)
string(FIND "${body}" "\n};" end)
string(SUBSTRING "${body}" 0 ${end} body)

# Members and methods sit two spaces in: `  <type> <name>` followed by
# an initializer, a brace, a semicolon or a parameter list.
set(declared "")
string(REPLACE "\n" ";" lines "${body}")
foreach(line IN LISTS lines)
  if(line MATCHES "^  [A-Za-z_][A-Za-z0-9_:<>]* ([a-z_][a-z0-9_]*)( =|\\{|;|\\()")
    list(APPEND declared "${CMAKE_MATCH_1}")
  endif()
endforeach()
if(NOT declared)
  message(FATAL_ERROR "found no FleetConfig fields in src/fleet/fleet.h")
endif()

file(GLOB docs "${ROOT}/docs/*.md")
list(PREPEND docs "${ROOT}/DESIGN.md")
set(unknown 0)
foreach(doc IN LISTS docs)
  file(READ "${doc}" text)
  string(REGEX MATCHALL "FleetConfig::(\\{[^}]*\\}|[a-z_][a-z0-9_]*)" refs "${text}")
  foreach(ref IN LISTS refs)
    string(REGEX REPLACE "^FleetConfig::\\{?" "" names "${ref}")
    string(REGEX REPLACE "[} ]" "" names "${names}")
    string(REPLACE "," ";" names "${names}")
    foreach(name IN LISTS names)
      if(NOT name IN_LIST declared)
        file(RELATIVE_PATH rel "${ROOT}" "${doc}")
        message(SEND_ERROR "${rel}: FleetConfig::${name} is not declared in src/fleet/fleet.h")
        set(unknown 1)
      endif()
    endforeach()
  endforeach()
endforeach()
if(unknown)
  message(FATAL_ERROR "docs name FleetConfig fields that do not exist")
endif()
list(LENGTH declared count)
message(STATUS "docs name only declared FleetConfig fields (${count} declared)")
