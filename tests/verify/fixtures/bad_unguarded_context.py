"""Known-bad: a component keeps hooks read through a context local and
uses them outside their guard.

The constructor reads the run context once, the way the simulator's
components do: ``context = current_context()``, then the monitor and
the fault injector off it.  ``send`` records to the monitor under its
guard but rolls the injector without one.
"""


class Port:
    def __init__(self):
        context = current_context()
        self.monitor = context.monitor
        self.faults = context.injector("net")
        self.sent = 0

    def send(self, packet):
        if self.monitor is not None:
            self.monitor.record(packet)
        if self.faults.roll_loss():
            return False
        self.sent += 1
        return True


def current_context():
    return None
