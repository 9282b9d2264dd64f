/* The x86-64 levels the C stubs build variants for, and the one CPU
   check that picks the AVX-512 ones: fill_stubs.c (the mask loop, the
   PDEP select of rank.h) and route_batch_stubs.c (the rule lanes and
   the pair draw).

   A variant is a function compiled with target("arch=x86-64-vN")
   beside the portable code, and is called only after the check says
   the CPU runs that level, so one binary runs everywhere. GCC 12 is
   the first GCC whose target attribute and __builtin_cpu_supports take
   the level names; other compilers and targets build the portable code
   alone, and RCM_LEVELS stays undefined there. */

#ifndef RCM_LEVELS_H
#define RCM_LEVELS_H

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#define RCM_LEVELS 1
#define V4 __attribute__((target("arch=x86-64-v4")))

static inline int cpu_v4(void)
{
  return __builtin_cpu_supports("x86-64-v4");
}
#endif

#endif
