"""wasslip: transport-robust risk certificates for Lipschitz classifiers.

Exact optimal transport over finite supports, the one-dimensional dual of the
worst-case risk over a transport ball, certificates for deep models from one
loss table in the input metric, adversarial-risk bounds, and the regularized
training objectives they justify; every analytic route is paired with an LP
or grid oracle.

Import each module by name (`from wasslip.robust import minimize_dual`); the
package root loads none of them.
"""

__version__ = "0.1.0"
