"""CUDA-aware MPI two-sided API (the application baseline).

The original GPULBM [24] that §IV redesigns is a CUDA-aware **MPI**
code: every halo exchange is a matched send/recv pair.  To reproduce
the paper's application comparison, :class:`MpiComm` gives each PE a
small mpi4py-flavoured surface over the job's two-sided engine
(:mod:`repro.msg`) on its ``"staged"`` transport, the MVAPICH2-GPU
behaviour of the paper's era:

* rendezvous for GPU buffers — data moves only once *both* sides have
  posted and the RTS/CTS round-trip completed;
* the transfer itself is the host-staged chunk pipeline
  (D2H -> IB -> H2D), with the receiver's H2D copies charged to the
  receiver's links — both processes are occupied for the duration,
  which is exactly the serialization one-sided puts eliminate;
* eager path for small host-resident messages.
"""

from repro.mpi.core import MpiComm

__all__ = ["MpiComm"]
